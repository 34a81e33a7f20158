package gateway

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/metrics"
	"repro/internal/shard"
)

// TestLookupBatchMatchesSingles is the programmatic equivalence pin: for
// every owner — indexed, unknown, duplicated, empty — a batch row must
// carry exactly what the full index (and hence a single Lookup) answers.
func TestLookupBatchMatchesSingles(t *testing.T) {
	full, names, bases, _ := buildShardedFixture(t, 20, 30, 3, 1)
	g, err := New(Config{Shards: bases, Client: fastClient(), ProbePeriod: -1, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	owners := append([]string{}, names...)
	owners = append(owners, "owner://no-such-identity", names[0], "", names[0])
	answers := g.LookupBatch(context.Background(), owners)
	if len(answers) != len(owners) {
		t.Fatalf("answers = %d, want %d", len(answers), len(owners))
	}
	for i, owner := range owners {
		a := answers[i]
		if a.Owner != owner {
			t.Fatalf("row %d echoes %q, want %q", i, a.Owner, owner)
		}
		if a.Err != nil {
			t.Fatalf("row %d (%q): %v", i, owner, a.Err)
		}
		want, err := full.Query(owner)
		if err != nil {
			if a.Found {
				t.Fatalf("row %d (%q): batch found, full index does not know it", i, owner)
			}
			continue
		}
		if !a.Found {
			t.Fatalf("row %d (%q): full index knows it, batch missed", i, owner)
		}
		if fmt.Sprint(a.Providers) != fmt.Sprint(want) {
			t.Fatalf("row %d (%q): batch %v, full index %v", i, owner, a.Providers, want)
		}
	}
}

// TestLookupBatchServesFromCacheAfterBackfill: a cold batch back-fills
// the response cache, so the identical warm batch must answer complete
// and correct with every upstream dead.
func TestLookupBatchServesFromCacheAfterBackfill(t *testing.T) {
	_, names, bases, servers := buildShardedFixture(t, 15, 20, 2, 1)
	reg := metrics.NewRegistry()
	g, err := New(Config{Shards: bases, Client: fastClient(), ProbePeriod: -1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	owners := append(append([]string{}, names...), "owner://no-such-identity")
	cold := g.LookupBatch(context.Background(), owners)
	for i, a := range cold {
		if a.Err != nil {
			t.Fatalf("cold row %d: %v", i, a.Err)
		}
		if a.Cached {
			t.Fatalf("cold row %d (%q) claims a cache hit", i, a.Owner)
		}
	}
	for _, reps := range servers {
		for _, ts := range reps {
			ts.Close()
		}
	}
	warm := g.LookupBatch(context.Background(), owners)
	for i, a := range warm {
		if a.Err != nil {
			t.Fatalf("warm row %d with dead upstreams: %v", i, a.Err)
		}
		if !a.Cached {
			t.Fatalf("warm row %d (%q) not served from cache", i, a.Owner)
		}
		if fmt.Sprint(a.Providers) != fmt.Sprint(cold[i].Providers) || a.Found != cold[i].Found {
			t.Fatalf("warm row %d changed: %+v vs %+v", i, a, cold[i])
		}
	}
	// The negative row is cached too — the miss must not dodge the cache.
	if last := warm[len(warm)-1]; last.Found || !last.Cached {
		t.Fatalf("negative row not cache-served: %+v", last)
	}
	if hits := reg.Counter("eppi_gateway_cache_hits_total", "").Value(); hits != uint64(len(owners)) {
		t.Fatalf("cache hits = %d, want %d", hits, len(owners))
	}
}

// TestLookupBatchPartialShardFailure: one dead shard degrades exactly its
// own rows to per-owner errors; the surviving shard's rows are unharmed.
func TestLookupBatchPartialShardFailure(t *testing.T) {
	full, names, bases, servers := buildShardedFixture(t, 12, 24, 2, 1)
	g, err := New(Config{Shards: bases, Client: fastClient(), ProbePeriod: -1, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for _, ts := range servers[0] {
		ts.Close()
	}
	answers := g.LookupBatch(context.Background(), names)
	deadRows, liveRows := 0, 0
	for i, a := range answers {
		if shard.For(a.Owner, 2) == 0 {
			deadRows++
			if a.Err == nil {
				t.Fatalf("row %d (%q) on the dead shard has no error: %+v", i, a.Owner, a)
			}
			if a.Found {
				t.Fatalf("row %d (%q) errored AND found: %+v", i, a.Owner, a)
			}
			continue
		}
		liveRows++
		if a.Err != nil {
			t.Fatalf("row %d (%q) on the live shard errored: %v", i, a.Owner, a.Err)
		}
		want, err := full.Query(a.Owner)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Found || fmt.Sprint(a.Providers) != fmt.Sprint(want) {
			t.Fatalf("row %d (%q) = %+v, want providers %v", i, a.Owner, a, want)
		}
	}
	if deadRows == 0 || liveRows == 0 {
		t.Fatalf("fixture routed all owners to one shard (dead=%d live=%d); pick different owners", deadRows, liveRows)
	}
}

// TestLookupBatchIntoReusesBuffer: the Into form must resolve into the
// caller's storage and leave no stale field from the buffer's previous
// life readable — on cold rows, warm rows, and error rows alike.
func TestLookupBatchIntoReusesBuffer(t *testing.T) {
	full, names, bases, _ := buildShardedFixture(t, 10, 12, 2, 1)
	g, err := New(Config{Shards: bases, Client: fastClient(), ProbePeriod: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	owners := names[:4]
	poison := func(buf []BatchAnswer) {
		for i := range buf {
			buf[i] = BatchAnswer{Owner: "stale", Found: true, Cached: true,
				Providers: []int{-1}, Epoch: 999, Err: errors.New("stale")}
		}
	}
	buf := make([]BatchAnswer, 8)
	poison(buf)
	cold := g.LookupBatchInto(context.Background(), owners, buf)
	if len(cold) != len(owners) {
		t.Fatalf("len = %d, want %d", len(cold), len(owners))
	}
	if &cold[0] != &buf[0] {
		t.Fatal("Into allocated fresh storage despite a big-enough buffer")
	}
	check := func(pass string, answers []BatchAnswer) {
		t.Helper()
		for i, a := range answers {
			if a.Owner != owners[i] || a.Err != nil {
				t.Fatalf("%s row %d = %+v (stale buffer fields leaked?)", pass, i, a)
			}
			want, err := full.Query(a.Owner)
			if err != nil {
				t.Fatal(err)
			}
			if !a.Found || fmt.Sprint(a.Providers) != fmt.Sprint(want) {
				t.Fatalf("%s row %d = %+v, want providers %v", pass, i, a, want)
			}
		}
	}
	check("cold", cold)
	// Warm pass through the cache-hit write path, same poisoned buffer.
	poison(buf)
	warm := g.LookupBatchInto(context.Background(), owners, buf)
	check("warm", warm)
	for i, a := range warm {
		if !a.Cached {
			t.Fatalf("warm row %d not a cache hit: %+v", i, a)
		}
	}
	// A too-small buffer grows instead of truncating.
	grown := g.LookupBatchInto(context.Background(), owners, make([]BatchAnswer, 1))
	check("grown", grown)
}

// TestLookupBatchDuplicatesCollapse: duplicate owners ride one upstream
// sub-request (the batch merge collapses them) yet every position gets its
// row.
func TestLookupBatchDuplicatesCollapse(t *testing.T) {
	_, names, bases, _ := buildShardedFixture(t, 10, 12, 2, 1)
	reg := metrics.NewRegistry()
	g, err := New(Config{Shards: bases, Client: fastClient(), ProbePeriod: -1, Registry: reg, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	owner := names[0]
	answers := g.LookupBatch(context.Background(), []string{owner, owner, owner})
	for i, a := range answers {
		if a.Owner != owner || a.Err != nil || !a.Found {
			t.Fatalf("row %d = %+v", i, a)
		}
		if fmt.Sprint(a.Providers) != fmt.Sprint(answers[0].Providers) {
			t.Fatalf("duplicate rows diverge: %+v vs %+v", a, answers[0])
		}
	}
	// Three copies of one owner → exactly one sub-batch request upstream.
	if n := reg.Counter("eppi_gateway_batch_subrequests_total", "").Value(); n != 1 {
		t.Fatalf("sub-batch requests = %d, want 1", n)
	}
	if c := reg.Histogram("eppi_batch_size", "", nil).Count(); c != 1 {
		t.Fatalf("batch size observations = %d, want 1", c)
	}
}

// TestLookupBatchSingleSnapshotPerShard: within one batch, every
// non-cached row answered by the same shard carries the same epoch (one
// sub-batch request = one snapshot).
func TestLookupBatchSingleSnapshotPerShard(t *testing.T) {
	_, names, bases, _ := buildShardedFixture(t, 12, 24, 3, 1)
	g, err := New(Config{Shards: bases, Client: fastClient(), ProbePeriod: -1, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	answers := g.LookupBatch(context.Background(), names)
	epochBy := map[int]uint64{}
	for _, a := range answers {
		if a.Err != nil || a.Cached {
			t.Fatalf("row %+v", a)
		}
		k := shard.For(a.Owner, 3)
		if seen, ok := epochBy[k]; ok && seen != a.Epoch {
			t.Fatalf("shard %d mixed epochs %d and %d within one batch", k, seen, a.Epoch)
		}
		epochBy[k] = a.Epoch
	}
}

// TestLookupBatchEmpty: a zero-owner batch is a no-op, not a panic.
func TestLookupBatchEmpty(t *testing.T) {
	_, _, bases, _ := buildShardedFixture(t, 10, 12, 2, 1)
	g, err := New(Config{Shards: bases, Client: fastClient(), ProbePeriod: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if answers := g.LookupBatch(context.Background(), nil); len(answers) != 0 {
		t.Fatalf("answers = %v, want empty", answers)
	}
}
