package gateway

import (
	"context"
	"testing"
)

// The warm benchmarks pin down the batched pipeline's reason to exist:
// a warm LookupBatch row must cost a small fraction of a warm single
// Lookup (the acceptance bar is 5×). Run them when touching
// the cache or LookupBatch fast paths:
//
//	go test -bench 'LookupWarm|BatchWarm' -benchmem ./internal/gateway/
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
