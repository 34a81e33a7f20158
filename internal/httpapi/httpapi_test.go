package httpapi

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/bitmat"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/privacy"
	"repro/internal/provider"
	"repro/internal/searcher"
)

func testService(t *testing.T, opts ...Option) (*httptest.Server, *Client) {
	t.Helper()
	m := bitmat.MustNew(4, 2)
	m.Set(0, 0, true)
	m.Set(2, 0, true)
	m.Set(1, 1, true)
	srv, err := index.NewServer(m, []string{"alice", "bob owner"})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHandler(srv, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts, NewClient(ts.URL, ts.Client())
}

func TestNewHandlerNil(t *testing.T) {
	if _, err := NewHandler(nil); err == nil {
		t.Fatal("nil server accepted")
	}
}

func TestQueryEndpoint(t *testing.T) {
	_, client := testService(t)
	got, err := client.Query(context.Background(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Query = %v", got)
	}
}

func TestQueryEscaping(t *testing.T) {
	// Owner identities can contain spaces and URL-special characters.
	_, client := testService(t)
	got, err := client.Query(context.Background(), "bob owner")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("Query = %v", got)
	}
}

func TestQueryUnknownOwner(t *testing.T) {
	_, client := testService(t)
	_, err := client.Query(context.Background(), "mallory")
	if !errors.Is(err, ErrOwnerNotFound) {
		t.Fatalf("error = %v", err)
	}
}

func TestQueryMissingParam(t *testing.T) {
	ts, _ := testService(t)
	resp, err := http.Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts, _ := testService(t)
	resp, err := http.Post(ts.URL+"/v1/query?owner=alice", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d, want 405", resp.StatusCode)
	}
}

// TestStatsAndHealthz: healthz reports the index shape, and the node's
// load counters are the registry's eppi_index_* series (there is no
// /v1/stats route).
func TestStatsAndHealthz(t *testing.T) {
	reg := metrics.NewRegistry()
	_, client := testService(t, WithMetrics(reg))
	ctx := context.Background()
	hz, err := client.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Providers != 4 || hz.Owners != 2 {
		t.Fatalf("healthz = %+v", hz)
	}
	if _, err := client.Query(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("eppi_index_queries_total", "").Value(); got != 1 {
		t.Fatalf("queries = %d, want 1", got)
	}
	if h := reg.Histogram("eppi_index_query_fanout", "", nil); h.Count() != 1 || h.Sum() != 2 {
		t.Fatalf("fanout count=%d sum=%v, want 1/2", h.Count(), h.Sum())
	}
}

func TestClientAgainstDeadServer(t *testing.T) {
	ctx := context.Background()
	client := NewClient("http://127.0.0.1:1", nil) // nothing listens there
	if _, err := client.Query(ctx, "alice"); err == nil {
		t.Fatal("query against dead server succeeded")
	}
	if _, err := client.Healthz(ctx); err == nil {
		t.Fatal("healthz against dead server succeeded")
	}
}

// A node that answers healthz with a non-200 is not healthy, whatever
// its body says, and a healthz body is read under a cap.
func TestClientHealthzRejectsNon200AndOversizedBody(t *testing.T) {
	draining := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "draining"})
	}))
	defer draining.Close()
	client := NewClient(draining.URL, draining.Client(), withBackoff(time.Millisecond, 2*time.Millisecond))
	_, err := client.Healthz(context.Background())
	if err == nil || !strings.Contains(err.Error(), "503") || !strings.Contains(err.Error(), "draining") {
		t.Fatalf("healthz of a 503 replica: err = %v, want the status and its error text", err)
	}

	huge := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(w, `{"status":"ok","pad":"%s"}`, strings.Repeat("x", maxShortBody))
	}))
	defer huge.Close()
	if _, err := NewClient(huge.URL, huge.Client()).Healthz(context.Background()); err == nil {
		t.Fatal("healthz read a body past its cap")
	}
}

func TestClientDefaultTimeout(t *testing.T) {
	c := NewClient("http://example.invalid", nil)
	if c.http.Timeout != DefaultTimeout {
		t.Fatalf("default client timeout = %v, want %v", c.http.Timeout, DefaultTimeout)
	}
}

func TestClientHonorsContext(t *testing.T) {
	block := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block
	}))
	defer ts.Close()
	defer close(block)
	client := NewClient(ts.URL, ts.Client())
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := client.Query(ctx, "alice")
	if err == nil {
		t.Fatal("query against a stalled server succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want context deadline", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("context deadline did not bound the call")
	}
}

func TestEmptyProvidersList(t *testing.T) {
	m := bitmat.MustNew(2, 1)
	srv, err := index.NewServer(m, []string{"ghost"})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHandler(srv)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	client := NewClient(ts.URL, ts.Client())
	got, err := client.Query(context.Background(), "ghost")
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || len(got) != 0 {
		t.Fatalf("empty query = %v, want []", got)
	}
}

func TestMiddlewareStatusClasses(t *testing.T) {
	reg := metrics.NewRegistry()
	ts, client := testService(t, WithMetrics(reg))
	ctx := context.Background()

	// 2xx, 2xx, 4xx (unknown owner), 4xx (missing param) on the query route.
	if _, err := client.Query(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Query(ctx, "bob owner"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Query(ctx, "mallory"); !errors.Is(err, ErrOwnerNotFound) {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	count := func(route, class string) uint64 {
		return reg.Counter("eppi_http_requests_total", "",
			metrics.L("route", route), metrics.L("class", class)).Value()
	}
	if got := count("query", "2xx"); got != 2 {
		t.Errorf("query 2xx = %d, want 2", got)
	}
	if got := count("query", "4xx"); got != 2 {
		t.Errorf("query 4xx = %d, want 2", got)
	}
	if got := count("query", "5xx"); got != 0 {
		t.Errorf("query 5xx = %d, want 0", got)
	}

	// Latency histogram populated for the route, all samples bucketed.
	h := reg.Histogram("eppi_http_request_seconds", "", nil, metrics.L("route", "query"))
	if h.Count() != 4 {
		t.Errorf("latency observations = %d, want 4", h.Count())
	}
	if h.Sum() <= 0 {
		t.Errorf("latency sum = %v, want > 0", h.Sum())
	}
}

func TestMiddleware5xx(t *testing.T) {
	// Drive the middleware directly with a handler that fails.
	reg := metrics.NewRegistry()
	m := bitmat.MustNew(1, 1)
	srv, err := index.NewServer(m, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHandler(srv, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	fail := h.mw.Instrument("boom", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	})
	rec := httptest.NewRecorder()
	fail(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	got := reg.Counter("eppi_http_requests_total", "",
		metrics.L("route", "boom"), metrics.L("class", "5xx")).Value()
	if got != 1 {
		t.Fatalf("boom 5xx = %d, want 1", got)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	reg := metrics.NewRegistry()
	ts, client := testService(t, WithMetrics(reg))
	if _, err := client.Query(context.Background(), "alice"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE eppi_index_queries_total counter",
		"eppi_index_queries_total 1",
		"# TYPE eppi_index_query_fanout histogram",
		`eppi_index_query_fanout_bucket{le="2"} 1`,
		"# TYPE eppi_http_requests_total counter",
		"# TYPE eppi_http_request_seconds histogram",
		`eppi_http_request_seconds_count{route="query"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestMetricsEndpointFullStack shares one registry across every serving
// layer — HTTP middleware, index, and a two-phase searcher — and checks the
// exposition carries at least one counter and one histogram from each.
func TestMetricsEndpointFullStack(t *testing.T) {
	providers := make([]*provider.Provider, 4)
	for i := range providers {
		providers[i] = provider.New(i, "p")
		providers[i].Grant("dr")
	}
	for _, i := range []int{0, 2} {
		if err := providers[i].Delegate(provider.Record{Owner: "alice", Body: "rec"}, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	pub := bitmat.MustNew(4, 1)
	pub.Set(0, 0, true)
	pub.Set(2, 0, true)
	pub.Set(3, 0, true) // noise bit: one false positive
	srv, err := index.NewServer(pub, []string{"alice"})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	h, err := NewHandler(srv, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	s, err := searcher.New("dr", srv, providers)
	if err != nil {
		t.Fatal(err)
	}
	s.Instrument(reg)
	if _, err := s.Search("alice"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	client := NewClient(ts.URL, ts.Client())
	if _, err := client.Query(context.Background(), "alice"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		// httpapi
		"# TYPE eppi_http_requests_total counter",
		"# TYPE eppi_http_request_seconds histogram",
		// index (1 search + 1 HTTP query = 2 QueryPPIs)
		"# TYPE eppi_index_queries_total counter",
		"eppi_index_queries_total 2",
		"# TYPE eppi_index_query_fanout histogram",
		// searcher
		"# TYPE eppi_searcher_true_positive_total counter",
		"eppi_searcher_true_positive_total 2",
		"eppi_searcher_false_positive_total 1",
		"# TYPE eppi_searcher_probe_seconds histogram",
		"eppi_searcher_probe_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestMetricsExpositionLints runs the format linter over a live
// /v1/metrics scrape with every new telemetry family registered —
// privacy report gauges, audit sink counters, build info — so a
// malformed series cannot ship unnoticed.
func TestMetricsExpositionLints(t *testing.T) {
	m := bitmat.MustNew(4, 2)
	m.Set(0, 0, true)
	m.Set(2, 0, true)
	m.Set(1, 1, true)
	srv, err := index.NewServer(m, []string{"alice", "bob owner"})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	metrics.RegisterBuildInfo(reg)
	sink, err := audit.Open(t.TempDir(), audit.Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	h, err := NewHandler(srv, WithMetrics(reg), WithAudit(sink))
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := privacy.Compute(privacy.Input{
		Truth: m, Published: m,
		Names:      []string{"alice", "bob owner"},
		Eps:        []float64{0.4, 0.8},
		Thresholds: []uint64{5, 5},
		Hidden:     []bool{false, false},
		Policy:     "chernoff", Gamma: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := privacy.Sealed(rep, 1)
	if err != nil {
		t.Fatal(err)
	}
	h.SetReport(sealed)

	ts := httptest.NewServer(h)
	defer ts.Close()
	client := NewClient(ts.URL, ts.Client())
	if _, err := client.Query(context.Background(), "alice"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"eppi_build_info{", "eppi_privacy_fp_rate{", "eppi_audit_dropped_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if errs := metrics.LintExposition(strings.NewReader(out)); len(errs) != 0 {
		t.Errorf("/v1/metrics failed lint: %v\n%s", errs, out)
	}
}

func TestMetricsEndpointAbsentWithoutRegistry(t *testing.T) {
	ts, _ := testService(t)
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("uninstrumented /v1/metrics status = %d, want 404", resp.StatusCode)
	}
}
