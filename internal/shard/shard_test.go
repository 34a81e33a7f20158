package shard

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/mathx"
	"repro/internal/workload"
)

// buildIndex constructs a real published index for partition tests.
func buildIndex(t *testing.T, providers, owners int) (*bitmat.Matrix, []string) {
	t.Helper()
	d, err := workload.GenerateZipf(workload.ZipfConfig{
		Providers: providers, Owners: owners, Exponent: 1.1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Construct(d.Matrix, d.Eps, core.Config{
		Policy: mathx.PolicyChernoff, Gamma: 0.9, Mode: core.ModeTrusted, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Published, d.Names
}

func TestForStableAndInRange(t *testing.T) {
	for of := 1; of <= 7; of++ {
		for i := 0; i < 100; i++ {
			name := fmt.Sprintf("owner://site-%d.example.org", i)
			k := For(name, of)
			if k < 0 || k >= of {
				t.Fatalf("For(%q, %d) = %d out of range", name, of, k)
			}
			if again := For(name, of); again != k {
				t.Fatalf("For not stable: %d then %d", k, again)
			}
		}
	}
}

func TestPartitionCoversEveryOwnerExactlyOnce(t *testing.T) {
	published, names := buildIndex(t, 30, 40)
	full, err := index.NewServer(published, names)
	if err != nil {
		t.Fatal(err)
	}
	const of = 3
	shards, err := Partition(published, names, of)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	totalOwners := 0
	for k, srv := range shards {
		id, n, sharded := srv.ShardInfo()
		if !sharded || id != k || n != of {
			t.Fatalf("shard %d reports identity (%d, %d, %v)", k, id, n, sharded)
		}
		if srv.Providers() != full.Providers() {
			t.Fatalf("shard %d has %d provider rows, want %d", k, srv.Providers(), full.Providers())
		}
		totalOwners += srv.Owners()
		for _, name := range srv.Names() {
			seen[name]++
			if For(name, of) != k {
				t.Fatalf("owner %q landed on shard %d, For says %d", name, k, For(name, of))
			}
		}
	}
	if totalOwners != len(names) {
		t.Fatalf("shards hold %d owners, index has %d", totalOwners, len(names))
	}
	for _, name := range names {
		if seen[name] != 1 {
			t.Fatalf("owner %q appears in %d shards", name, seen[name])
		}
	}
}

// TestPartitionAnswersIdenticalToFullIndex holds every shard to the
// per-bit column reference of the source matrix (ragged against the 64-bit
// tile on both sides): each owner is answered by exactly its own shard
// with ColOnes of its column, by position, by name and in a batch.
func TestPartitionAnswersIdenticalToFullIndex(t *testing.T) {
	published, names := buildIndex(t, 70, 130)
	const of = 4
	shards, err := Partition(published, names, of)
	if err != nil {
		t.Fatal(err)
	}
	local := make([]int, of) // next local column per shard: original order is kept
	for j, name := range names {
		want := published.ColOnes(j)
		k := For(name, of)
		if got := shards[k].QueryColumn(local[k]); !reflect.DeepEqual(got, want) {
			t.Fatalf("shard %d column %d (%q) = %v, source column = %v", k, local[k], name, got, want)
		}
		got, err := shards[k].Query(name)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("shard %d Query(%q) = %v, %v; source column = %v", k, name, got, err, want)
		}
		local[k]++
		for other := range shards {
			if _, err := shards[other].Query(name); other != k && !errors.Is(err, index.ErrUnknownOwner) {
				t.Fatalf("shard %d answers for %q, which belongs to shard %d", other, name, k)
			}
		}
	}
	for k := range shards {
		if local[k] != shards[k].Owners() {
			t.Fatalf("shard %d holds %d owners, want %d", k, shards[k].Owners(), local[k])
		}
		if shards[k].Epoch() != 0 {
			t.Fatalf("shard %d epoch %d, want 0", k, shards[k].Epoch())
		}
		// One batch over the shard's own names ≡ the singles above.
		for i, item := range shards[k].QueryBatch(context.Background(), shards[k].Names()) {
			single := shards[k].QueryColumn(i)
			if !item.Found || len(item.Providers) != len(single) || (len(single) > 0 && !reflect.DeepEqual(item.Providers, single)) {
				t.Fatalf("shard %d batch row %d = %+v, single = %v", k, i, item, single)
			}
		}
	}
}

// TestEmptyShardServes: with more shards than owners some shards are
// empty; they still serve (every owner unknown), report all m providers,
// and survive the snapshot round trip.
func TestEmptyShardServes(t *testing.T) {
	published, names := buildIndex(t, 70, 3)
	const of = 16
	dir := t.TempDir()
	man, err := WriteSetAt(dir, published, names, of, 0)
	if err != nil {
		t.Fatal(err)
	}
	empties := 0
	for k := 0; k < of; k++ {
		srv, err := man.LoadShard(dir, k)
		if err != nil {
			t.Fatalf("load shard %d: %v", k, err)
		}
		if srv.Providers() != 70 {
			t.Fatalf("shard %d reports %d providers, want 70", k, srv.Providers())
		}
		if srv.Owners() > 0 {
			continue
		}
		empties++
		if _, err := srv.Query(names[0]); !errors.Is(err, index.ErrUnknownOwner) {
			t.Fatalf("empty shard %d: Query = %v, want ErrUnknownOwner", k, err)
		}
		if items := srv.QueryBatch(context.Background(), names); len(items) != len(names) || items[0].Found {
			t.Fatalf("empty shard %d: batch = %+v", k, items)
		}
		if srv.SearchCost() != 0 || len(srv.Names()) != 0 {
			t.Fatalf("empty shard %d holds data", k)
		}
	}
	if empties < of-len(names) {
		t.Fatalf("%d empty shards, want at least %d", empties, of-len(names))
	}
}

func TestPartitionValidation(t *testing.T) {
	m := bitmat.MustNew(2, 2)
	if _, err := Partition(nil, nil, 2); err == nil {
		t.Error("nil matrix accepted")
	}
	if _, err := Partition(m, []string{"a", "b"}, 0); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := Partition(m, []string{"a"}, 2); err == nil {
		t.Error("name/column mismatch accepted")
	}
}

func TestWriteSetRoundTrip(t *testing.T) {
	published, names := buildIndex(t, 20, 25)
	dir := t.TempDir()
	const of = 3
	man, err := WriteSetAt(dir, published, names, of, 0)
	if err != nil {
		t.Fatal(err)
	}
	if man.Shards != of || man.Providers != 20 || man.Owners != 25 {
		t.Fatalf("manifest = %+v", man)
	}

	back, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Verify(dir); err != nil {
		t.Fatalf("fresh set fails verify: %v", err)
	}
	owners := 0
	for k := 0; k < of; k++ {
		srv, err := back.LoadShard(dir, k)
		if err != nil {
			t.Fatalf("load shard %d: %v", k, err)
		}
		owners += srv.Owners()
		if srv.Owners() != back.Files[k].Owners {
			t.Fatalf("shard %d owners %d, manifest says %d", k, srv.Owners(), back.Files[k].Owners)
		}
	}
	if owners != 25 {
		t.Fatalf("loaded shards hold %d owners, want 25", owners)
	}
}

func TestManifestDetectsCorruptedShard(t *testing.T) {
	published, names := buildIndex(t, 10, 12)
	dir := t.TempDir()
	man, err := WriteSetAt(dir, published, names, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, man.Files[1].Name)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := man.Verify(dir); !errors.Is(err, index.ErrChecksum) {
		t.Fatalf("Verify on corrupted shard = %v, want ErrChecksum", err)
	}
	if _, err := man.LoadShard(dir, 1); !errors.Is(err, index.ErrChecksum) {
		t.Fatalf("LoadShard on corrupted shard = %v, want ErrChecksum", err)
	}
	// The untouched shard still loads.
	if _, err := man.LoadShard(dir, 0); err != nil {
		t.Fatalf("intact shard rejected: %v", err)
	}
}

func TestManifestDetectsTruncatedShard(t *testing.T) {
	published, names := buildIndex(t, 10, 12)
	dir := t.TempDir()
	man, err := WriteSetAt(dir, published, names, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, man.Files[0].Name)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := man.Verify(dir); !errors.Is(err, index.ErrTruncated) {
		t.Fatalf("Verify on truncated shard = %v, want ErrTruncated", err)
	}
}

func TestWriteSetAtStampsEpoch(t *testing.T) {
	published, names := buildIndex(t, 10, 12)
	dir := t.TempDir()
	man, err := WriteSetAt(dir, published, names, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if man.Epoch != 5 {
		t.Fatalf("manifest epoch = %d, want 5", man.Epoch)
	}
	back, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Epoch != 5 {
		t.Fatalf("reloaded manifest epoch = %d, want 5", back.Epoch)
	}
	for k := 0; k < 2; k++ {
		srv, err := back.LoadShard(dir, k)
		if err != nil {
			t.Fatalf("load shard %d: %v", k, err)
		}
		if srv.Epoch() != 5 {
			t.Fatalf("shard %d epoch = %d, want 5", k, srv.Epoch())
		}
	}
}

func TestLoadShardRejectsEpochMismatch(t *testing.T) {
	// A manifest claiming one epoch over snapshots stamped with another is
	// a mixed shard set — two index versions served as one. LoadShard must
	// refuse it even though every checksum matches.
	published, names := buildIndex(t, 10, 12)
	dir := t.TempDir()
	man, err := WriteSetAt(dir, published, names, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	man.Epoch = 4
	if err := man.write(dir); err != nil {
		t.Fatal(err)
	}
	back, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Verify(dir); err != nil {
		t.Fatalf("checksums should still verify: %v", err)
	}
	if _, err := back.LoadShard(dir, 0); err == nil {
		t.Fatal("epoch-disagreeing shard set loaded")
	}
}

func TestReadManifestRejectsCorruption(t *testing.T) {
	published, names := buildIndex(t, 10, 12)
	dir := t.TempDir()
	if _, err := WriteSetAt(dir, published, names, 2, 0); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ManifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x80
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(dir); !errors.Is(err, index.ErrChecksum) {
		t.Fatalf("corrupted manifest = %v, want ErrChecksum", err)
	}

	// A length field claiming 8 GiB (one flipped bit, or a hostile origin)
	// must read as a short file without the loader allocating the claim.
	binary.BigEndian.PutUint64(raw[7:15], 1<<33)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = ReadManifest(dir)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, index.ErrTruncated) {
		t.Fatalf("oversized length = %v, want ErrTruncated", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("allocated %d bytes reading a %d-byte manifest", got, len(raw))
	}
}
