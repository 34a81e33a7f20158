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
// batch's floor is its 64 owner strings. The instrumented rows run the
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
		{"single", plain, 24, singleReq},
		{"batch64", plain, 100, batchReq},
		{"single/instrumented", instrumented, 36, singleReq},
		{"batch64/instrumented", instrumented, 111, batchReq},
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
