package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/httpapi"
	"repro/internal/index"
	"repro/internal/mathx"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// buildPublishable constructs a real published index whose answers depend
// on the provider count, so two publications with different counts give
// visibly different provider lists for the same owner names.
func buildPublishable(t *testing.T, providers, owners int, seed int64) (*index.Server, []string, *core.Result) {
	t.Helper()
	d, err := workload.GenerateZipf(workload.ZipfConfig{
		Providers: providers, Owners: owners, Exponent: 1.1, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Construct(d.Matrix, d.Eps, core.Config{
		Policy: mathx.PolicyChernoff, Gamma: 0.9, Mode: core.ModeTrusted, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	full, err := index.NewServer(res.Published, d.Names)
	if err != nil {
		t.Fatal(err)
	}
	return full, d.Names, res
}

// TestEpochHotSwapEndToEnd is the acceptance test for the epoch
// subsystem: a 2-shard fleet boots from an epoch store at epoch 1 and is
// hammered with queries while epoch 2 is published and hot-swapped
// underneath it.
//
// It proves, over HTTP end to end:
//  1. zero requests fail across the publish + swap window;
//  2. afterwards the gateway serves epoch-2 answers only, X-Eppi-Epoch
//     and the healthz epoch read 2 everywhere, and the gateway cache
//     holds no epoch-1 entries;
//  3. each node's eppi_epoch gauge reads 2 and eppi_epoch_swaps_total
//     counted exactly one swap.
func TestEpochHotSwapEndToEnd(t *testing.T) {
	const shards = 2
	root := t.TempDir()
	pub := epoch.Publisher{Root: root}

	fullA, names, resA := buildPublishable(t, 20, 30, 1)
	if _, err := pub.Publish(resA.Published, names, shards); err != nil {
		t.Fatal(err)
	}

	// Boot the fleet from the store: one node per shard, each with its own
	// registry and a fast epoch watcher, exactly like eppi-serve -epoch-dir.
	// Defer order matters: cancel must run before the Wait (LIFO), or the
	// watcher goroutines never get told to stop.
	var watchers sync.WaitGroup
	defer watchers.Wait()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	regs := make([]*metrics.Registry, shards)
	var bases [][]string
	for k := 0; k < shards; k++ {
		srv, n, err := epoch.Load(root, k, shards)
		if err != nil {
			t.Fatalf("boot shard %d: %v", k, err)
		}
		if n != 1 {
			t.Fatalf("boot shard %d at epoch %d, want 1", k, n)
		}
		regs[k] = metrics.NewRegistry()
		handler, err := httpapi.NewHandler(srv, httpapi.WithMetrics(regs[k]))
		if err != nil {
			t.Fatal(err)
		}
		w := &epoch.Watcher{
			Root: root, Shard: k, Of: shards, Period: 10 * time.Millisecond,
			OnSwap: func(next *index.Server, _ uint64) error { return handler.Swap(next) },
		}
		watchers.Add(1)
		go func() { defer watchers.Done(); w.Run(ctx, n) }()
		ts := httptest.NewServer(handler)
		defer ts.Close()
		bases = append(bases, []string{ts.URL})
	}

	greg := metrics.NewRegistry()
	g, err := New(Config{Shards: bases, Client: fastClient(), Registry: greg,
		ProbePeriod: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gw := httptest.NewServer(g)
	defer gw.Close()

	truth := func(full *index.Server) map[string]string {
		m := make(map[string]string, len(names))
		for _, name := range names {
			providers, err := full.Query(name)
			if err != nil {
				t.Fatal(err)
			}
			m[name] = fmt.Sprint(providers)
		}
		return m
	}
	truthA := truth(fullA)

	queryOne := func(name string) (string, string, int, error) {
		resp, err := http.Get(gw.URL + "/v1/query?owner=" + name)
		if err != nil {
			return "", "", 0, err
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		var qr httpapi.QueryResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(body, &qr); err != nil {
				return "", "", resp.StatusCode, err
			}
		}
		return fmt.Sprint(qr.Providers), resp.Header.Get(httpapi.EpochHeader), resp.StatusCode, nil
	}

	// Epoch-1 sweep: every answer matches the full index, stamped epoch 1.
	for _, name := range names {
		got, epochHdr, code, err := queryOne(name)
		if err != nil || code != http.StatusOK {
			t.Fatalf("epoch 1 query %q: %d, %v", name, code, err)
		}
		if got != truthA[name] {
			t.Fatalf("epoch 1 query %q = %v, want %v", name, got, truthA[name])
		}
		if epochHdr != "1" {
			t.Fatalf("epoch 1 query %q: %s header = %q, want 1", name, httpapi.EpochHeader, epochHdr)
		}
	}
	if g.Epoch() != 1 {
		t.Fatalf("gateway epoch = %d after epoch-1 traffic, want 1", g.Epoch())
	}

	// Hammer the gateway continuously through the publish + swap window.
	// The acceptance bar: not one failed request.
	var stop atomic.Bool
	var hammered, failed atomic.Int64
	var hammerWG sync.WaitGroup
	for w := 0; w < 4; w++ {
		hammerWG.Add(1)
		go func(w int) {
			defer hammerWG.Done()
			for i := 0; !stop.Load(); i++ {
				name := names[(i*4+w)%len(names)]
				_, _, code, err := queryOne(name)
				hammered.Add(1)
				if err != nil || (code != http.StatusOK && code != http.StatusNotFound) {
					failed.Add(1)
					t.Errorf("mid-swap query %q failed: %d, %v", name, code, err)
				}
			}
		}(w)
	}

	// Publish epoch 2: a re-publication over a grown provider network. The
	// owner names are identical; the provider lists are not.
	fullB, namesB, resB := buildPublishable(t, 26, 30, 1)
	if fmt.Sprint(namesB) != fmt.Sprint(names) {
		t.Fatal("fixture regression: epoch-2 owner names differ from epoch 1")
	}
	if n, err := pub.Publish(resB.Published, namesB, shards); err != nil || n != 2 {
		t.Fatalf("publish epoch 2 = %d, %v", n, err)
	}

	// Wait for every node to report the new epoch via healthz.
	nodeEpoch := func(base string) uint64 {
		resp, err := http.Get(base + "/v1/healthz")
		if err != nil {
			return 0
		}
		defer resp.Body.Close()
		var hz httpapi.HealthzResponse
		if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
			return 0
		}
		return hz.Epoch
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		swapped := 0
		for _, reps := range bases {
			if nodeEpoch(reps[0]) == 2 {
				swapped++
			}
		}
		if swapped == shards {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never reached epoch 2 (%d/%d nodes swapped)", swapped, shards)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The gateway hears about the new epoch from its health probes (cache
	// hits never go upstream); wait until it has.
	for g.Epoch() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("gateway never observed epoch 2 (still at %d)", g.Epoch())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Let the hammer overlap the post-swap window too, then stop it.
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	hammerWG.Wait()
	if failed.Load() != 0 {
		t.Fatalf("%d of %d in-flight requests failed across the swap", failed.Load(), hammered.Load())
	}
	if hammered.Load() == 0 {
		t.Fatal("hammer sent no requests — the window test proved nothing")
	}

	// Epoch-2 sweep: only new answers, new header, everywhere.
	truthB := truth(fullB)
	changed := 0
	for _, name := range names {
		got, epochHdr, code, err := queryOne(name)
		if err != nil || code != http.StatusOK {
			t.Fatalf("epoch 2 query %q: %d, %v", name, code, err)
		}
		if got != truthB[name] {
			t.Fatalf("epoch 2 query %q = %v, want %v (epoch-1 answer was %v)",
				name, got, truthB[name], truthA[name])
		}
		if epochHdr != "2" {
			t.Fatalf("epoch 2 query %q: %s header = %q, want 2", name, httpapi.EpochHeader, epochHdr)
		}
		if got != truthA[name] {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("no owner's answer changed across epochs — re-publication invisible")
	}
	if g.Epoch() != 2 {
		t.Fatalf("gateway epoch = %d, want 2", g.Epoch())
	}

	// The cache holds no epoch-1 entries: every key is epoch-2-scoped.
	g.cache.mu.Lock()
	entries := 0
	for s := g.cache.head; s >= 0; s = g.cache.slots[s].next {
		if sl := &g.cache.slots[s]; sl.val.epoch != 2 {
			g.cache.mu.Unlock()
			t.Fatalf("stale cache key (%d, %q) survived the epoch swap", sl.val.epoch, sl.owner)
		}
		entries++
	}
	g.cache.mu.Unlock()
	if entries == 0 {
		t.Fatal("cache empty after epoch-2 sweep")
	}

	// Every node's metrics read epoch 2 with exactly one swap counted.
	for k, reg := range regs {
		if v := reg.Gauge("eppi_epoch", "").Value(); v != 2 {
			t.Errorf("node %d eppi_epoch = %v, want 2", k, v)
		}
		if v := reg.Counter("eppi_epoch_swaps_total", "").Value(); v != 1 {
			t.Errorf("node %d eppi_epoch_swaps_total = %d, want 1", k, v)
		}
	}
}
