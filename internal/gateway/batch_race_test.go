package gateway

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/httpapi"
	"repro/internal/metrics"
	"repro/internal/shard"
)

// TestBatchLookupRaceUnderEpochSwap hammers one gateway with concurrent
// batched lookups, single lookups and a mid-flight epoch hot-swap on a
// 2-shard fleet — the CI race job runs it by name, next to
// TestEpochHotSwapEndToEnd. The bars:
//
//  1. zero failed requests across the swap window;
//  2. every row matches the canonical answer of the epoch it claims;
//  3. no mixed-snapshot rows: within one batch response, the non-cached
//     rows of one shard all carry the same epoch (one sub-batch request =
//     one snapshot).
func TestBatchLookupRaceUnderEpochSwap(t *testing.T) {
	fl := buildFuzzFleet(t)
	fl.setEpoch(1)
	g, err := New(Config{Shards: fl.bases, Client: fastClient(), ProbePeriod: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	const batchLen = 8
	ctx := context.Background()
	var stop atomic.Bool
	var batches, singles, failed atomic.Int64
	var wg sync.WaitGroup

	// checkBatch validates bars 2 and 3 for one batch response; it
	// reports (instead of t.Fatal) so every worker drains cleanly.
	checkBatch := func(owners []string, answers []BatchAnswer) {
		epochBy := map[int]uint64{}
		for i, row := range answers {
			if row.Err != nil {
				failed.Add(1)
				t.Errorf("batch row %q: %v", row.Owner, row.Err)
				continue
			}
			if row.Owner != owners[i] {
				failed.Add(1)
				t.Errorf("batch row %d echoes %q, want %q", i, row.Owner, owners[i])
				continue
			}
			canon, indexed := fl.truth[row.Epoch][row.Owner]
			if row.Found != indexed || (indexed && fmt.Sprint(row.Providers) != canon) {
				failed.Add(1)
				t.Errorf("row %q claims epoch %d but answers %v/%v (epoch-%d canon %v/%s)",
					row.Owner, row.Epoch, row.Found, row.Providers, row.Epoch, indexed, canon)
				continue
			}
			if row.Cached {
				continue
			}
			k := shard.For(row.Owner, 2)
			if seen, ok := epochBy[k]; ok && seen != row.Epoch {
				failed.Add(1)
				t.Errorf("mixed snapshot in one batch: shard %d rows at epochs %d and %d", k, seen, row.Epoch)
			}
			epochBy[k] = row.Epoch
		}
	}

	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]BatchAnswer, batchLen)
			owners := make([]string, batchLen)
			for i := 0; !stop.Load(); i++ {
				for j := range owners {
					owners[j] = fl.names[(i*batchLen+j*3+w)%len(fl.names)]
				}
				checkBatch(owners, g.LookupBatchInto(ctx, owners, buf))
				batches.Add(1)
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				owner := fl.names[(i*7+w)%len(fl.names)]
				if _, err := g.Lookup(ctx, owner); err != nil {
					failed.Add(1)
					t.Errorf("single Lookup(%q): %v", owner, err)
				}
				singles.Add(1)
			}
		}(w)
	}

	time.Sleep(60 * time.Millisecond)
	fl.setEpoch(2) // hot-swap under fire
	time.Sleep(60 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if failed.Load() != 0 {
		t.Fatalf("%d failures across %d batches + %d singles",
			failed.Load(), batches.Load(), singles.Load())
	}
	if batches.Load() == 0 || singles.Load() == 0 {
		t.Fatalf("hammer too idle (batches=%d singles=%d) — the race window proved nothing",
			batches.Load(), singles.Load())
	}
}

// heldTransport serves one shard's replicas in process: every request goes
// straight to node. Batch requests to host hold wait for the current
// release channel before answering, whatever their context says, so the
// attempt that sent one becomes a hedge loser still running after its
// batch returned.
type heldTransport struct {
	node http.Handler
	hold string

	mu      sync.Mutex
	release chan struct{}
}

func (t *heldTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.node.ServeHTTP(rec, r)
	if r.URL.Host == t.hold && r.URL.Path == "/v1/query/batch" {
		t.mu.Lock()
		release := t.release
		t.mu.Unlock()
		<-release
	}
	return rec.Result(), nil
}

// TestLookupBatchHedgeLoserOwnsItsOwners: a losing hedge attempt reads
// its sub-batch's owner list after the batch that launched it has
// returned (it checks the rows echo them). The batch's pooled working
// memory is reused by the next batch at that moment, so the sub-batch
// list must not live in it. The race detector (the CI race job) catches
// a shared list; the rows must be right either way.
func TestLookupBatchHedgeLoserOwnsItsOwners(t *testing.T) {
	full, names, _, _ := buildShardedFixture(t, 12, 72, 1, 1)
	node, err := httpapi.NewHandler(full)
	if err != nil {
		t.Fatal(err)
	}
	tr := &heldTransport{node: node, hold: "held.invalid"}
	reg := metrics.NewRegistry()
	g, err := New(Config{
		Shards:     [][]string{{"http://held.invalid", "http://fast.invalid"}},
		Client:     &http.Client{Transport: tr},
		HedgeAfter: time.Millisecond, ProbePeriod: -1, CacheSize: -1, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ctx := context.Background()
	check := func(owners []string, answers []BatchAnswer) {
		t.Helper()
		for i, a := range answers {
			want, err := full.Query(owners[i])
			if err != nil {
				t.Fatal(err)
			}
			if a.Err != nil || a.Owner != owners[i] || fmt.Sprint(a.Providers) != fmt.Sprint(want) {
				t.Fatalf("row %d = %+v, want %q with %v", i, a, owners[i], want)
			}
		}
	}
	// Replicas rotate per batch, so of two batches in a row one tries the
	// held replica first: it is hedged, the fast replica wins, and the held
	// attempt is left waiting for release.
	for it := 0; it < 8; it++ {
		release := make(chan struct{})
		tr.mu.Lock()
		tr.release = release
		tr.mu.Unlock()
		batch := names[it*9 : it*9+9]
		check(batch[:3], g.LookupBatch(ctx, batch[:3]))
		check(batch[3:6], g.LookupBatch(ctx, batch[3:6]))
		close(release) // a held loser now checks its rows while the next batch runs
		check(batch[6:], g.LookupBatch(ctx, batch[6:]))
	}
	// Every attempt, losers included, has finished once the upstream
	// histogram has one sample per sub-request fired.
	fired := reg.Counter("eppi_gateway_batch_subrequests_total", "")
	done := reg.Histogram("eppi_gateway_upstream_seconds", "", nil)
	for deadline := time.Now().Add(5 * time.Second); done.Count() < fired.Value(); {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d upstream attempts finished", done.Count(), fired.Value())
		}
		time.Sleep(time.Millisecond)
	}
	if n := reg.Counter("eppi_gateway_hedges_total", "").Value(); n == 0 {
		t.Fatal("no hedge fired: the test never made a loser")
	}
}
