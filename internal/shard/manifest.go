package shard

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/bitmat"
	"repro/internal/index"
	"repro/internal/parallel"
)

// ManifestName is the manifest's file name inside a shard-set directory.
const ManifestName = "manifest.eppi"

// Manifest describes one shard set: the partition parameters plus a
// checksum of every member file. It is persisted inside an index frame
// (FrameManifest), so the manifest itself is versioned and checksummed
// exactly like the snapshots it describes.
type Manifest struct {
	// Shards is the shard count k of the set.
	Shards int
	// Providers and Owners are the dimensions of the full index the set
	// was partitioned from.
	Providers int
	Owners    int
	// Epoch is the publication epoch of the whole set. Every member
	// snapshot carries the same epoch; LoadShard rejects a snapshot whose
	// embedded epoch disagrees with the manifest (a mixed set would serve
	// two index versions as one). Pre-epoch manifests read as 0.
	Epoch uint64
	// Files describes each shard snapshot, indexed by shard id.
	Files []ShardFile
}

// ShardFile is one member snapshot of a shard set.
type ShardFile struct {
	// Name is the snapshot file name, relative to the manifest.
	Name string
	// Owners is the identity count the shard holds.
	Owners int
	// CRC32 is the IEEE checksum of the whole snapshot file.
	CRC32 uint32
	// Size is the snapshot file length in bytes.
	Size int64
}

// FileName returns the canonical snapshot name for shard k.
func FileName(k int) string { return fmt.Sprintf("shard-%03d.idx", k) }

// WriteSetAt partitions a published index into `of` shards and writes the
// whole set under dir: shard-000.idx … shard-NNN.idx plus ManifestName.
// It returns the manifest it wrote. Every member snapshot and the
// manifest are stamped with the publication epoch, so a serving node (and
// the gateway behind it) can tell which index version the set is. The
// shards are encoded and written concurrently, each as one sized frame
// written once and checksummed once; the manifest follows them.
func WriteSetAt(dir string, published *bitmat.Matrix, names []string, of int, epoch uint64) (*Manifest, error) {
	shards, err := Partition(published, names, of)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	man := &Manifest{
		Shards:    of,
		Providers: published.Rows(),
		Owners:    len(names),
		Epoch:     epoch,
		Files:     make([]ShardFile, of),
	}
	err = parallel.For(of, of, func(k int) error {
		srv := shards[k]
		srv.SetEpoch(epoch)
		frame, err := srv.Frame()
		if err != nil {
			return fmt.Errorf("shard %d: %w", k, err)
		}
		name := FileName(k)
		if err := os.WriteFile(filepath.Join(dir, name), frame, 0o644); err != nil {
			return fmt.Errorf("shard %d: %w", k, err)
		}
		man.Files[k] = ShardFile{
			Name:   name,
			Owners: srv.Owners(),
			CRC32:  crc32.ChecksumIEEE(frame),
			Size:   int64(len(frame)),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return man, man.write(dir)
}

// write persists the manifest under dir.
func (m *Manifest) write(dir string) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(m); err != nil {
		return fmt.Errorf("shard: encode manifest: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, ManifestName))
	if err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	if _, err := index.WriteFrame(f, index.FrameManifest, payload.Bytes()); err != nil {
		f.Close()
		return fmt.Errorf("shard: write manifest: %w", err)
	}
	return f.Close()
}

// ReadManifest loads and checksum-verifies the manifest in dir.
func ReadManifest(dir string) (*Manifest, error) {
	f, err := os.Open(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	defer f.Close()
	_, payload, err := index.ReadFrame(f, index.FrameManifest)
	if err != nil {
		return nil, fmt.Errorf("shard: manifest %s: %w", ManifestName, err)
	}
	var m Manifest
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&m); err != nil {
		return nil, fmt.Errorf("shard: decode manifest: %w", err)
	}
	if m.Shards < 1 || len(m.Files) != m.Shards {
		return nil, fmt.Errorf("shard: manifest inconsistent: %d shards, %d files", m.Shards, len(m.Files))
	}
	return &m, nil
}

// verifyBufSize is the read buffer Verify streams every member through.
const verifyBufSize = 256 << 10

// Verify checks every member file of the set against the manifest:
// presence, size and CRC-32. It reports the first mismatch. The members
// are streamed through one fixed buffer, so verifying a set costs a
// buffer, not the set's size in memory.
func (m *Manifest) Verify(dir string) error {
	return m.VerifyExcept(dir, -1)
}

// VerifyExcept is Verify skipping member k: the check a loader makes
// before LoadShard(dir, k), which checks member k itself as it reads it.
// Together the two reject a torn or tampered set whole, with the errors
// Verify gives, while member k's bytes are read once.
func (m *Manifest) VerifyExcept(dir string, k int) error {
	buf := make([]byte, verifyBufSize)
	for i, sf := range m.Files {
		if i == k {
			continue
		}
		size, sum, err := checksumFile(filepath.Join(dir, sf.Name), buf)
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		if err := m.checkMember(i, size, sum); err != nil {
			return err
		}
	}
	return nil
}

// checkMember compares member k's measured length and CRC-32 with the
// manifest. It is the one per-member check, for Verify and LoadShard.
func (m *Manifest) checkMember(k int, size int64, sum uint32) error {
	sf := m.Files[k]
	if size != sf.Size {
		return fmt.Errorf("shard %d (%s): %d bytes, manifest says %d: %w",
			k, sf.Name, size, sf.Size, index.ErrTruncated)
	}
	if sum != sf.CRC32 {
		return fmt.Errorf("shard %d (%s): crc32 %08x, manifest says %08x: %w",
			k, sf.Name, sum, sf.CRC32, index.ErrChecksum)
	}
	return nil
}

// checksumFile streams the file at path through buf and returns its
// length and IEEE CRC-32.
func checksumFile(path string, buf []byte) (int64, uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	var size int64
	var sum uint32
	for {
		n, err := f.Read(buf)
		size += int64(n)
		sum = crc32.Update(sum, crc32.IEEETable, buf[:n])
		if err == io.EOF {
			return size, sum, nil
		}
		if err != nil {
			return 0, 0, err
		}
	}
}

// LoadShard opens, verifies and loads member k of the set in dir: the
// file is read once, checked against the manifest as Verify checks it,
// and its snapshot frame is parsed in place. The snapshot's embedded
// shard identity and epoch must match the manifest slot.
func (m *Manifest) LoadShard(dir string, k int) (*index.Server, error) {
	if k < 0 || k >= m.Shards {
		return nil, fmt.Errorf("shard: id %d out of range 0..%d", k, m.Shards-1)
	}
	sf := m.Files[k]
	raw, err := os.ReadFile(filepath.Join(dir, sf.Name))
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", k, err)
	}
	if err := m.checkMember(k, int64(len(raw)), crc32.ChecksumIEEE(raw)); err != nil {
		return nil, err
	}
	srv, err := index.ReadBytes(raw)
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", k, err)
	}
	id, of, sharded := srv.ShardInfo()
	if !sharded || id != k || of != m.Shards {
		return nil, fmt.Errorf("shard: %s claims shard %d/%d, manifest slot is %d/%d", sf.Name, id, of, k, m.Shards)
	}
	if srv.Epoch() != m.Epoch {
		return nil, fmt.Errorf("shard: %s claims epoch %d, manifest says %d — mixed shard set", sf.Name, srv.Epoch(), m.Epoch)
	}
	return srv, nil
}
