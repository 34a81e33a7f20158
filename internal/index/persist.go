package index

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/bitmat"
)

// Snapshot framing. Every on-disk artifact of the serving tier — full
// index snapshots, column-shard snapshots, shard-set manifests — shares
// one self-describing frame so a loader can reject truncated, corrupted
// or mismatched files with a precise error instead of a gob decode panic
// deep inside the payload:
//
//	magic   [4]byte  "EPPI"
//	version uint16   big-endian format version (FrameVersion)
//	kind    uint8    payload discriminator (FrameKind)
//	length  uint64   big-endian payload length in bytes
//	crc32   uint32   big-endian IEEE CRC-32 of the payload
//	payload [length]byte
//
// The checksum covers only the payload: a header corruption shows up as
// bad magic / unknown version / absurd length, a payload corruption as a
// checksum mismatch, and a short file as ErrTruncated.

// FrameVersion is the snapshot format version, the only one read or
// written. Version 2 added the epoch number to Snapshot and
// shard.Manifest payloads; version 3 turned Snapshot.Matrix owner-major.
// A file of any other version is refused with ErrVersion — a v2 matrix
// decoded as v3 would swap providers with owners — and the operator
// republishes.
const FrameVersion uint16 = 3

// frameMagic opens every framed artifact.
var frameMagic = [4]byte{'E', 'P', 'P', 'I'}

// FrameKind discriminates the payload carried by a frame.
type FrameKind uint8

// Frame kinds.
const (
	// FrameSnapshot is a gob-encoded Snapshot (a full or shard index).
	FrameSnapshot FrameKind = 1
	// FrameManifest is a gob-encoded shard-set manifest
	// (internal/shard.Manifest).
	FrameManifest FrameKind = 2
)

// String names the kind for error messages.
func (k FrameKind) String() string {
	switch k {
	case FrameSnapshot:
		return "snapshot"
	case FrameManifest:
		return "manifest"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Framing errors. All are wrapped with file-level context by callers;
// match with errors.Is.
var (
	// ErrBadMagic reports input that is not a framed ε-PPI artifact.
	ErrBadMagic = errors.New("index: not an ε-PPI snapshot (bad magic)")
	// ErrVersion reports a frame written by an unknown format version.
	ErrVersion = errors.New("index: unsupported snapshot version")
	// ErrTruncated reports a frame shorter than its header promises.
	ErrTruncated = errors.New("index: truncated snapshot")
	// ErrChecksum reports a payload whose CRC-32 does not match the header.
	ErrChecksum = errors.New("index: snapshot checksum mismatch (corrupted payload)")
	// ErrKind reports a frame of the wrong kind (e.g. a manifest where a
	// snapshot was expected).
	ErrKind = errors.New("index: unexpected snapshot kind")
)

// frameHeaderLen is the fixed byte length of the frame header.
const frameHeaderLen = 4 + 2 + 1 + 8 + 4

// maxFramePayload bounds the payload length a header may declare, far
// above any realistic index (a 1M×10K matrix is ~1.2 GB). ReadFrame
// allocates by the bytes present, not by the declared length.
const maxFramePayload = 1 << 34

// putFrameHeader fills hdr, frameHeaderLen bytes, with the header of a
// frame of the given kind around payload.
func putFrameHeader(hdr []byte, kind FrameKind, payload []byte) {
	copy(hdr[0:4], frameMagic[:])
	binary.BigEndian.PutUint16(hdr[4:6], FrameVersion)
	hdr[6] = byte(kind)
	binary.BigEndian.PutUint64(hdr[7:15], uint64(len(payload)))
	binary.BigEndian.PutUint32(hdr[15:19], crc32.ChecksumIEEE(payload))
}

// WriteFrame writes one framed payload and returns the bytes written.
func WriteFrame(w io.Writer, kind FrameKind, payload []byte) (int64, error) {
	var hdr [frameHeaderLen]byte
	putFrameHeader(hdr[:], kind, payload)
	n, err := w.Write(hdr[:])
	if err != nil {
		return int64(n), err
	}
	m, err := w.Write(payload)
	return int64(n) + int64(m), err
}

// parseHeader checks the frame header at the front of b — magic,
// completeness, version, kind and declared length — and returns the kind
// and the payload length it declares. want == 0 accepts any kind.
func parseHeader(b []byte, want FrameKind) (FrameKind, uint64, error) {
	// Magic first, so a short non-ε-PPI file reads as foreign, not truncated.
	if len(b) >= len(frameMagic) && !bytes.Equal(b[0:4], frameMagic[:]) {
		return 0, 0, ErrBadMagic
	}
	if len(b) < frameHeaderLen {
		return 0, 0, fmt.Errorf("%w: %d-byte header incomplete", ErrTruncated, frameHeaderLen)
	}
	if v := binary.BigEndian.Uint16(b[4:6]); v != FrameVersion {
		return 0, 0, fmt.Errorf("%w: file has v%d, this build reads v%d", ErrVersion, v, FrameVersion)
	}
	kind := FrameKind(b[6])
	if want != 0 && kind != want {
		return kind, 0, fmt.Errorf("%w: have %v, want %v", ErrKind, kind, want)
	}
	length := binary.BigEndian.Uint64(b[7:15])
	if length > maxFramePayload {
		return kind, 0, fmt.Errorf("%w: header declares absurd payload length %d", ErrChecksum, length)
	}
	return kind, length, nil
}

// parseFrame is the frame checker: it verifies the frame at the front of
// b — header, then the payload's presence and checksum — and returns the
// payload as a sub-slice of b, without copying it. Bytes after the frame
// are ignored, as ReadFrame leaves them unread.
func parseFrame(b []byte, want FrameKind) (FrameKind, []byte, error) {
	kind, length, err := parseHeader(b, want)
	if err != nil {
		return kind, nil, err
	}
	if length > uint64(len(b)-frameHeaderLen) {
		return kind, nil, fmt.Errorf("%w: payload shorter than declared %d bytes", ErrTruncated, length)
	}
	payload := b[frameHeaderLen : frameHeaderLen+int(length)]
	wantSum := binary.BigEndian.Uint32(b[15:19])
	if got := crc32.ChecksumIEEE(payload); got != wantSum {
		return kind, nil, fmt.Errorf("%w: crc32 %08x, header says %08x", ErrChecksum, got, wantSum)
	}
	return kind, payload, nil
}

// ReadFrame reads one framed payload, verifying magic, version, kind and
// checksum. Truncated input yields ErrTruncated; a checksum mismatch
// yields ErrChecksum. want == 0 accepts any kind; the actual kind is
// returned either way. It reads exactly one frame from r into a buffer
// and hands that buffer to the same checker an in-memory frame goes
// through.
func ReadFrame(r io.Reader, want FrameKind) (FrameKind, []byte, error) {
	var hdr [frameHeaderLen]byte
	n, err := io.ReadFull(r, hdr[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return 0, nil, err
	}
	kind, length, err := parseHeader(hdr[:n], want)
	if err != nil {
		return kind, nil, err
	}
	// The declared length is untrusted: when the reader can show how many
	// bytes remain, allocate those (at most the declared length) up front;
	// otherwise the buffer grows with the bytes actually read. MinRead of
	// slack keeps Buffer.ReadFrom from regrowing at the end.
	var size uint64
	if rem, ok := remaining(r); ok {
		size = min(length, uint64(rem))
	}
	var buf bytes.Buffer
	buf.Grow(frameHeaderLen + int(size) + bytes.MinRead)
	buf.Write(hdr[:])
	if _, err := io.CopyN(&buf, r, int64(length)); err != nil && err != io.EOF {
		return kind, nil, err
	}
	return parseFrame(buf.Bytes(), want)
}

// remaining reports how many unread bytes r holds, for the readers that
// know: in-memory readers and regular files.
func remaining(r io.Reader) (int64, bool) {
	switch v := r.(type) {
	case interface{ Len() int }: // *bytes.Reader, *bytes.Buffer, *strings.Reader
		return int64(v.Len()), true
	case *os.File:
		fi, err := v.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return 0, false
		}
		pos, err := v.Seek(0, io.SeekCurrent)
		if err != nil {
			return 0, false
		}
		return fi.Size() - pos, fi.Size() >= pos
	}
	return 0, false
}

// Snapshot is the serializable form of a PPI server: the published matrix
// plus the identity labels. It deliberately contains nothing else — the
// third-party host must never receive β values, thresholds or any other
// construction by-product.
type Snapshot struct {
	// Matrix is the bitmat binary encoding of M' as the server stores it:
	// transposed, one row per owner and one column per provider, so a
	// loader adopts the decoded words without reshaping them. A set bit at
	// column ≥ m would be a phantom provider id; the decoder refuses it as
	// a set padding bit.
	Matrix []byte
	// Names are the identity labels, one per matrix row, in row order.
	Names []string
	// Shard and Shards identify a column shard of a larger index
	// (0 ≤ Shard < Shards). Both zero for an unsharded index.
	Shard  int
	Shards int
	// Epoch is the publication epoch the snapshot belongs to. Re-published
	// indexes carry increasing epochs so the serving tier can tell index
	// versions apart; 0 means "never re-published".
	Epoch uint64
}

// WriteTo serializes the server state: a checksummed, versioned frame
// around the gob-encoded Snapshot, handed to w in one Write (see Frame).
func (s *Server) WriteTo(w io.Writer) (int64, error) {
	frame, err := s.Frame()
	if err != nil {
		return 0, err
	}
	n, err := w.Write(frame)
	return int64(n), err
}

// Frame returns the bytes WriteTo writes: the snapshot frame, assembled
// in one buffer sized up front for the whole frame, so it is allocated
// once and never regrown. The header is reserved at the front and filled
// in place when the gob payload behind it is known.
func (s *Server) Frame() ([]byte, error) {
	raw, err := s.owners.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("index: encode matrix: %w", err)
	}
	// gob spends at most 9 bytes on a length or an int, and a few hundred
	// on the type descriptors that open the stream.
	size := frameHeaderLen + 512 + 9 + len(raw)
	for _, name := range s.names {
		size += 9 + len(name)
	}
	buf := bytes.NewBuffer(make([]byte, frameHeaderLen, size))
	snap := Snapshot{Matrix: raw, Names: s.names, Shard: s.shard, Shards: s.shards, Epoch: s.epoch}
	if err := gob.NewEncoder(buf).Encode(snap); err != nil {
		return nil, fmt.Errorf("index: encode snapshot: %w", err)
	}
	frame := buf.Bytes()
	putFrameHeader(frame[:frameHeaderLen], FrameSnapshot, frame[frameHeaderLen:])
	return frame, nil
}

// Read deserializes a server previously written with WriteTo, verifying
// the frame checksum first. Query statistics start fresh.
func Read(r io.Reader) (*Server, error) {
	_, payload, err := ReadFrame(r, FrameSnapshot)
	if err != nil {
		return nil, err
	}
	return decodeSnapshot(payload)
}

// ReadBytes is Read over a frame already in memory: the frame is checked
// and decoded in place, without copying its payload. The returned server
// does not retain frame — gob copies everything it decodes.
func ReadBytes(frame []byte) (*Server, error) {
	_, payload, err := parseFrame(frame, FrameSnapshot)
	if err != nil {
		return nil, err
	}
	return decodeSnapshot(payload)
}

// decodeSnapshot builds a server from a checked snapshot payload.
func decodeSnapshot(payload []byte) (*Server, error) {
	var snap Snapshot
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("index: decode snapshot: %w", err)
	}
	var mat bitmat.Matrix
	if err := mat.UnmarshalBinary(snap.Matrix); err != nil {
		return nil, fmt.Errorf("index: decode matrix: %w", err)
	}
	// The decoded matrix and names are referenced by nothing else: adopt
	// them as they are (still checking names against rows and for
	// duplicates) instead of paying NewServer's defensive copies.
	srv, err := Adopt(&mat, snap.Names)
	if err != nil {
		return nil, err
	}
	if snap.Shards > 0 {
		if err := srv.SetShard(snap.Shard, snap.Shards); err != nil {
			return nil, err
		}
	}
	srv.SetEpoch(snap.Epoch)
	return srv, nil
}
