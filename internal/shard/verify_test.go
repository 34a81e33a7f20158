package shard

import (
	"fmt"
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
	man, err := WriteSet(dir, published, names, 2)
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
