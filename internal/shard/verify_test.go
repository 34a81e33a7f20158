package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/bitmat"
)

// TestVerifyAllocBound: checking a shard set streams every member through
// one fixed buffer, so it costs that buffer, not the set's size — a
// rollout verifies the whole set once per shard it loads.
func TestVerifyAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under -race")
	}
	const providers, owners = 3000, 8000
	published := bitmat.MustNew(providers, owners)
	names := make([]string, owners)
	for j := range names {
		names[j] = fmt.Sprintf("owner://site-%d.example.org", j)
		for i := j % 7; i < providers; i += 97 {
			published.Set(i, j, true)
		}
	}
	dir := t.TempDir()
	man, err := WriteSetAt(dir, published, names, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, f := range man.Files {
		total += f.Size
	}
	if total < 2<<20 {
		t.Fatalf("set is %d bytes; the bound needs a multi-MB set", total)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = man.Verify(dir)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("Verify allocated %d bytes for a %d-byte set", got, total)
	}
}

// TestLoadShardChecksMemberAsVerify: LoadShard's check of the member it
// loads is Verify's, error for error, so a loader may let it stand for
// that member.
func TestLoadShardChecksMemberAsVerify(t *testing.T) {
	published, names := buildIndex(t, 10, 12)
	dir := t.TempDir()
	man, err := WriteSetAt(dir, published, names, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, man.Files[1].Name)
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), intact...)
	flipped[len(flipped)/2] ^= 0x01
	for _, bad := range [][]byte{flipped, intact[:len(intact)-1], append(append([]byte(nil), intact...), 0)} {
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		verr := man.Verify(dir)
		if verr == nil {
			t.Fatal("Verify accepted a damaged member")
		}
		if err := man.VerifyExcept(dir, 1); err != nil {
			t.Fatalf("VerifyExcept skipping the damaged member: %v", err)
		}
		if _, lerr := man.LoadShard(dir, 1); lerr == nil || lerr.Error() != verr.Error() {
			t.Fatalf("LoadShard = %v, Verify = %v", lerr, verr)
		}
	}
}
