package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"

	"repro/internal/bitmat"
)

// frameErrors are the error classes a frame check reports.
var frameErrors = []error{ErrBadMagic, ErrVersion, ErrTruncated, ErrChecksum, ErrKind}

// errClass names err's frame error class: -1 for nil, len(frameErrors)
// for an error of no frame class (a payload the decoder refused).
func errClass(err error) int {
	if err == nil {
		return -1
	}
	for i, e := range frameErrors {
		if errors.Is(err, e) {
			return i
		}
	}
	return len(frameErrors)
}

// allocated returns the bytes fn allocates, as the least of three runs:
// the counter is process-wide, and the fuzzing engine allocates beside
// the target now and then.
func allocated(fn func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// FuzzReadFrame holds the in-place parse (ReadBytes) to the streaming one
// (Read over a bytes.Reader): on any input both accept or both reject,
// with the same error class, and accepted inputs decode to equal servers.
// With reseal set, the header's checksum is recomputed over the payload
// it declares, so mutations reach the snapshot decoder. A header
// declaring more payload than the input holds must cost at most what the
// input holds.
func FuzzReadFrame(f *testing.F) {
	m := bitmat.MustNew(5, 3)
	m.Set(0, 0, true)
	m.Set(4, 2, true)
	srv, err := NewServer(m, []string{"alice", "bob", "carol"})
	if err != nil {
		f.Fatal(err)
	}
	if err := srv.SetShard(1, 4); err != nil {
		f.Fatal(err)
	}
	srv.SetEpoch(7)
	frame, err := srv.Frame()
	if err != nil {
		f.Fatal(err)
	}
	var manifest bytes.Buffer
	if _, err := WriteFrame(&manifest, FrameManifest, []byte("payload")); err != nil {
		f.Fatal(err)
	}
	hostile := append([]byte(nil), frame[:frameHeaderLen+8]...)
	binary.BigEndian.PutUint64(hostile[7:15], 1<<33)
	f.Add(frame, false)
	f.Add(frame, true)
	f.Add(append(append([]byte(nil), frame...), "trailing"...), false)
	f.Add(frame[:len(frame)-1], false)
	f.Add(frame[:frameHeaderLen], true)
	f.Add(manifest.Bytes(), false)
	f.Add(hostile, false)
	f.Add([]byte("EPPI"), false)
	f.Add([]byte{}, false)

	f.Fuzz(func(t *testing.T, b []byte, reseal bool) {
		if reseal && len(b) >= frameHeaderLen {
			if length := binary.BigEndian.Uint64(b[7:15]); length <= uint64(len(b)-frameHeaderLen) {
				payload := b[frameHeaderLen : frameHeaderLen+int(length)]
				binary.BigEndian.PutUint32(b[15:19], crc32.ChecksumIEEE(payload))
			}
		}
		inPlace, errInPlace := ReadBytes(b)
		streamed, errStreamed := Read(bytes.NewReader(b))
		if ci, cs := errClass(errInPlace), errClass(errStreamed); ci != cs {
			t.Fatalf("in place: %v; streamed: %v", errInPlace, errStreamed)
		}
		if errInPlace == nil {
			a, err := inPlace.Frame()
			if err != nil {
				t.Fatal(err)
			}
			z, err := streamed.Frame()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, z) {
				t.Fatal("in-place and streamed parses decoded different servers")
			}
		}
		if len(b) >= frameHeaderLen && binary.BigEndian.Uint64(b[7:15]) > uint64(len(b)-frameHeaderLen) {
			const slack = 4 << 10 // the reader, the header and an error message
			got := allocated(func() {
				_, _ = ReadBytes(b)
				_, _ = Read(bytes.NewReader(b))
			})
			if got > uint64(len(b))+slack {
				t.Fatalf("declared length %d over %d bytes of input allocated %d bytes",
					binary.BigEndian.Uint64(b[7:15]), len(b), got)
			}
		}
	})
}
