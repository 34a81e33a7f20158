package gateway

import (
	"context"
	"fmt"
	"runtime"
	"testing"
)

// The warm benchmarks pin down the batched pipeline's reason to exist:
// a warm LookupBatch row must cost a small fraction of a warm single
// Lookup (the acceptance bar is 5×). Run them when touching
// the cache or LookupBatch fast paths:
//
//	go test -bench 'LookupWarm|BatchWarm' -benchmem ./internal/gateway/
//
// The cold benchmarks time the miss path, every owner unseen by the
// cache, which is what every lookup of the trusted-cold benchmark pays:
//
//	go test -run '^$' -bench 'Cold' ./internal/gateway/
func newWarmBenchGateway(b *testing.B, owners []string, bases [][]string) *Gateway {
	b.Helper()
	g, err := New(Config{Shards: bases, Client: fastClient(), ProbePeriod: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(g.Close)
	for _, owner := range owners {
		if _, err := g.Lookup(context.Background(), owner); err != nil {
			b.Fatalf("warmup %q: %v", owner, err)
		}
	}
	return g
}

func BenchmarkLookupWarm(b *testing.B) {
	_, names, bases, _ := buildShardedFixture(b, 20, 128, 3, 1)
	g := newWarmBenchGateway(b, names, bases)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Lookup(ctx, names[i%len(names)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLookupBatchIntoWarm(b *testing.B) {
	_, names, bases, _ := buildShardedFixture(b, 20, 128, 3, 1)
	g := newWarmBenchGateway(b, names, bases)
	ctx := context.Background()
	batch := names[:64]
	buf := make([]BatchAnswer, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		answers := g.LookupBatchInto(ctx, batch, buf)
		if len(answers) != len(batch) {
			b.Fatal("short batch")
		}
	}
}

func BenchmarkLookupBatchWarm(b *testing.B) {
	_, names, bases, _ := buildShardedFixture(b, 20, 128, 3, 1)
	g := newWarmBenchGateway(b, names, bases)
	ctx := context.Background()
	batch := names[:64]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		answers := g.LookupBatch(ctx, batch)
		if len(answers) != len(batch) {
			b.Fatal("short batch")
		}
	}
}

// reportPerOwner reports ns and allocations per owner over b.N batches of
// batch owners, the allocations read from runtime.MemStats.Mallocs since
// before.
func reportPerOwner(b *testing.B, before *runtime.MemStats, batch int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	owners := float64(b.N * batch)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/owners, "ns/owner")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/owners, "allocs/owner")
}

// BenchmarkLookupBatchCold resolves batches of 64 owners through
// LookupBatchInto, walking 2 × DefaultCacheSize owners in order so the
// LRU never holds the next one: every row misses and goes to one of two
// in-process shard nodes over loopback. allocs/owner counts the whole
// process — gateway, client transport and node.
func BenchmarkLookupBatchCold(b *testing.B) {
	const batch = 64
	_, names, bases, _ := buildShardedFixture(b, 20, 2*DefaultCacheSize, 2, 1)
	g, err := New(Config{Shards: bases, Client: fastClient(), ProbePeriod: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(g.Close)
	ctx := context.Background()
	buf := make([]BatchAnswer, batch)
	next := 0
	run := func() {
		lo := next % (len(names) - batch + 1)
		next += batch
		for i, a := range g.LookupBatchInto(ctx, names[lo:lo+batch], buf) {
			if a.Err != nil || a.Cached {
				b.Fatalf("row %d: %+v, want a clean miss", i, a)
			}
		}
	}
	for i := 0; i < len(names)/batch; i++ { // one lap: connections and pools warm
		run()
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	reportPerOwner(b, &before, batch)
}

// BenchmarkCacheCold is the cache's share of a cold batch: a batch probe
// that misses all 64 owners, then the batch put that inserts them, each
// insert evicting the LRU tail of a full DefaultCacheSize cache.
func BenchmarkCacheCold(b *testing.B) {
	const batch = 64
	c := newCache(DefaultCacheSize)
	owners := make([]string, 2*DefaultCacheSize)
	hashes := make([]uint64, len(owners))
	for i := range owners {
		owners[i] = fmt.Sprint("owner://site-", i, ".example.org")
		hashes[i] = ownerHash(owners[i])
	}
	list := []byte("[3,141,592,653,589,793,238]")
	answers := make([]BatchAnswer, batch)
	puts := make([]cachePut, batch)
	next := 0
	run := func() {
		lo := next % len(owners)
		next += batch
		if hits := c.getBatch(1, owners[lo:lo+batch], hashes[lo:lo+batch], answers); hits != 0 {
			b.Fatalf("%d hits in a cold batch", hits)
		}
		for i := range puts {
			puts[i] = cachePut{owner: owners[lo+i], hash: hashes[lo+i], val: lookupResult{providers: list, epoch: 1}}
		}
		c.putBatch(puts)
	}
	for i := 0; i < len(owners)/batch; i++ {
		run()
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	reportPerOwner(b, &before, batch)
}
