package index

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"runtime"
	"strings"
	"testing"
)

func TestPersistRoundTrip(t *testing.T) {
	s := sampleServer(t)
	if _, err := s.Query("alice"); err != nil { // stats should NOT persist
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := s.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) || n == 0 {
		t.Fatalf("WriteTo reported %d bytes, buffer has %d", n, buf.Len())
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Providers() != s.Providers() || back.Owners() != s.Owners() {
		t.Fatalf("dims %dx%d", back.Providers(), back.Owners())
	}
	got, err := back.Query("alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Query after round trip = %v", got)
	}
	if st := back.Stats(); st.Queries != 1 {
		t.Fatalf("restored stats = %+v, want fresh counter at 1 (this query only)", st)
	}
	if back.SearchCost() != s.SearchCost() {
		t.Fatal("search cost changed across persistence")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not a snapshot")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("garbage: err = %v, want ErrBadMagic", err)
	}
	if _, err := Read(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
	// An un-framed gob stream carries no checksum: it must not reach the
	// gob decoder.
	s := sampleServer(t)
	raw, err := s.owners.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var plain bytes.Buffer
	if err := gob.NewEncoder(&plain).Encode(Snapshot{Matrix: raw, Names: s.names}); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&plain); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("plain gob: err = %v, want ErrBadMagic", err)
	}
}

// encode returns a framed snapshot of the sample server.
func encode(t *testing.T, s *Server) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadRejectsCorruptedPayload(t *testing.T) {
	raw := encode(t, sampleServer(t))
	// Flip one bit in the payload (past the 19-byte header): the CRC must
	// catch it with a checksum error, not a gob panic or silent garbage.
	for _, off := range []int{frameHeaderLen, frameHeaderLen + 7, len(raw) - 1} {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x40
		_, err := Read(bytes.NewReader(bad))
		if !errors.Is(err, ErrChecksum) {
			t.Errorf("corruption at %d: err = %v, want ErrChecksum", off, err)
		}
	}
}

func TestReadRejectsTruncation(t *testing.T) {
	raw := encode(t, sampleServer(t))
	for _, n := range []int{1, frameHeaderLen - 1, frameHeaderLen, len(raw) - 1} {
		_, err := Read(bytes.NewReader(raw[:n]))
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("truncation at %d bytes: err = %v, want ErrTruncated", n, err)
		}
	}
}

func TestReadRejectsVersionAndKind(t *testing.T) {
	raw := encode(t, sampleServer(t))
	future := append([]byte(nil), raw...)
	future[5] = 99 // version low byte
	if _, err := Read(bytes.NewReader(future)); !errors.Is(err, ErrVersion) {
		t.Errorf("future version: err = %v, want ErrVersion", err)
	}
	// Retired versions are refused, not converted: v2 held the matrix
	// providers × owners, and reading it as v3 would swap the two.
	for _, v := range []byte{1, 2} {
		old := append([]byte(nil), raw...)
		old[4], old[5] = 0, v
		if _, err := Read(bytes.NewReader(old)); !errors.Is(err, ErrVersion) {
			t.Errorf("v%d frame: err = %v, want ErrVersion", v, err)
		}
	}

	var manifest bytes.Buffer
	if _, err := WriteFrame(&manifest, FrameManifest, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(manifest.Bytes())); !errors.Is(err, ErrKind) {
		t.Errorf("manifest-as-snapshot: err = %v, want ErrKind", err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("the payload")
	n, err := WriteFrame(&buf, FrameManifest, payload)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteFrame reported %d bytes, wrote %d", n, buf.Len())
	}
	kind, got, err := ReadFrame(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if kind != FrameManifest || !bytes.Equal(got, payload) {
		t.Fatalf("round trip = (%v, %q)", kind, got)
	}
}

// TestReadFrameHostileLength: a bare header declaring 8 GiB of payload
// must cost what the input holds, not what the header claims.
func TestReadFrameHostileLength(t *testing.T) {
	var hdr bytes.Buffer
	if _, err := WriteFrame(&hdr, FrameSnapshot, nil); err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint64(hdr.Bytes()[7:15], 1<<33)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadFrame(bytes.NewReader(hdr.Bytes()), FrameSnapshot)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("allocated %d bytes for a %d-byte input", got, hdr.Len())
	}
}

func TestPersistEpoch(t *testing.T) {
	s := sampleServer(t)
	s.SetEpoch(7)
	back, err := Read(bytes.NewReader(encode(t, s)))
	if err != nil {
		t.Fatal(err)
	}
	if back.Epoch() != 7 {
		t.Fatalf("epoch after round trip = %d, want 7", back.Epoch())
	}
}

func TestPersistShardInfo(t *testing.T) {
	s := sampleServer(t)
	if err := s.SetShard(1, 3); err != nil {
		t.Fatal(err)
	}
	back, err := Read(bytes.NewReader(encode(t, s)))
	if err != nil {
		t.Fatal(err)
	}
	id, of, sharded := back.ShardInfo()
	if !sharded || id != 1 || of != 3 {
		t.Fatalf("shard info = (%d, %d, %v), want (1, 3, true)", id, of, sharded)
	}
}

func TestSearch(t *testing.T) {
	s := sampleServer(t)
	all := s.Search(context.Background(), "", 0)
	if len(all) != 3 || all[0].Owner != "alice" || len(all[0].Providers) != 2 {
		t.Fatalf("Search(\"\") = %+v", all)
	}
	if got := s.Search(context.Background(), "bob", 0); len(got) != 1 || got[0].Owner != "bob" {
		t.Fatalf("Search(bob) = %+v", got)
	}
	if got := s.Search(context.Background(), "", 2); len(got) != 2 {
		t.Fatalf("Search limit 2 = %+v", got)
	}
	if got := s.Search(context.Background(), "zzz", 0); len(got) != 0 {
		t.Fatalf("Search(zzz) = %+v", got)
	}
}
