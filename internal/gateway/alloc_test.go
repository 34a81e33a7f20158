package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"testing"
	"time"

	"repro/internal/httpapi"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// sortedPercentile is the reference quantile: copy the samples, sort,
// index — what the window computed on every upstream call before it
// cached its trigger.
func sortedPercentile(samples []time.Duration, p float64) time.Duration {
	buf := append([]time.Duration(nil), samples...)
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	idx := int(p * float64(len(buf)))
	if idx >= len(buf) {
		idx = len(buf) - 1
	}
	return buf[idx]
}

// TestHedgeDelayAllocFree: reading the adaptive hedge trigger is one
// atomic load (it copied and sorted the 256-sample window per call, 3
// allocations), and the cached trigger equals the sort-based reference
// right after every refresh.
func TestHedgeDelayAllocFree(t *testing.T) {
	g := &Gateway{lat: &latencyWindow{}}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 1; i <= 3*len(g.lat.ring); i++ {
		g.lat.observe(time.Duration(1 + rng.Int64N(int64(20*time.Millisecond))))
		if i%windowRefresh != 0 {
			continue
		}
		want := sortedPercentile(g.lat.ring[:g.lat.filled], hedgePercentile)
		if got := g.lat.hedgeTrigger(0); got != want {
			t.Fatalf("after %d samples: cached trigger %v, reference %v", i, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = g.hedgeDelay() }); n != 0 {
		t.Fatalf("hedgeDelay allocates %v times per call, want 0", n)
	}
}

// TestServeHTTPCachedAllocs bounds the allocations of a cache-hit request
// through the whole gateway handler, request construction and recorder
// included. With encoding/json on the query routes these were 25 for a
// single lookup and 108 for a 64-owner batch (go1.24, linux/amd64); the
// batch's floor is its 64 owner strings. Probing the cache without a key
// string and pooling the batch's answer rows took them from 24/95/35/110
// to 23/94/34/109. The instrumented rows run the
// benchmark's configuration (registry and tracer on), where the
// per-route middleware and the root span add their share.
func TestServeHTTPCachedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	_, names, bases, _ := buildShardedFixture(t, 20, 128, 3, 1)
	plain, err := New(Config{Shards: bases, Client: fastClient(), ProbePeriod: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(plain.Close)
	instrumented, err := New(Config{Shards: bases, Client: fastClient(), ProbePeriod: -1,
		Registry: metrics.NewRegistry(), Tracer: trace.New(trace.DefaultCapacity)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(instrumented.Close)
	for _, g := range []*Gateway{plain, instrumented} {
		for _, owner := range names {
			if _, err := g.Lookup(context.Background(), owner); err != nil {
				t.Fatal(err)
			}
		}
	}
	single := "/v1/query?owner=" + url.QueryEscape(names[3])
	body, err := json.Marshal(httpapi.BatchQueryRequest{Owners: names[:64]})
	if err != nil {
		t.Fatal(err)
	}
	singleReq := func() *http.Request { return httptest.NewRequest(http.MethodGet, single, nil) }
	batchReq := func() *http.Request {
		return httptest.NewRequest(http.MethodPost, "/v1/query/batch", bytes.NewReader(body))
	}
	for _, tc := range []struct {
		name   string
		g      *Gateway
		budget float64
		req    func() *http.Request
	}{
		{"single", plain, 23, singleReq},
		{"batch64", plain, 94, batchReq},
		{"single/instrumented", instrumented, 34, singleReq},
		{"batch64/instrumented", instrumented, 109, batchReq},
	} {
		n := testing.AllocsPerRun(50, func() {
			rec := httptest.NewRecorder()
			tc.g.ServeHTTP(rec, tc.req())
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", tc.name, rec.Code, rec.Body)
			}
		})
		t.Logf("%s: %v allocs per request", tc.name, n)
		if n > tc.budget {
			t.Errorf("%s: %v allocs per request, budget %v", tc.name, n, tc.budget)
		}
	}
}

// TestServeHTTPColdAllocs bounds the allocations of cache-miss requests
// through the whole gateway handler: a single lookup and a batch of 64
// owners, each never asked before, answered by two in-process shard nodes
// over loopback, so the count covers gateway, client transport and node
// alike. Before the gateway kept the node's provider bytes and merged
// batches by position these were 139 and 847; now they are 127 and 542
// (go1.24, linux/amd64). The budgets leave 2–3 % for the transport, whose
// count moves by one or two with scheduling: a connection handed back to
// the idle pool a moment late costs the next request a dial.
func TestServeHTTPColdAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	const runs, batch = 20, 64
	_, names, bases, _ := buildShardedFixture(t, 20, (runs+1)*(batch+1), 2, 1)
	g, err := New(Config{Shards: bases, Client: fastClient(), ProbePeriod: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	var singles []string
	var bodies [][]byte
	for len(names) > 0 {
		singles = append(singles, "/v1/query?owner="+url.QueryEscape(names[0]))
		body, err := json.Marshal(httpapi.BatchQueryRequest{Owners: names[1 : 1+batch]})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
		names = names[1+batch:]
	}
	for _, tc := range []struct {
		name   string
		budget float64
		req    func(i int) *http.Request
	}{
		{"single", 130, func(i int) *http.Request { return httptest.NewRequest(http.MethodGet, singles[i], nil) }},
		{"batch64", 556, func(i int) *http.Request {
			return httptest.NewRequest(http.MethodPost, "/v1/query/batch", bytes.NewReader(bodies[i]))
		}},
	} {
		next := 0
		n := testing.AllocsPerRun(runs, func() {
			rec := httptest.NewRecorder()
			g.ServeHTTP(rec, tc.req(next))
			next++
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", tc.name, rec.Code, rec.Body)
			}
		})
		t.Logf("%s: %v allocs per request", tc.name, n)
		if n > tc.budget {
			t.Errorf("%s: %v allocs per request, budget %v", tc.name, n, tc.budget)
		}
	}
}
