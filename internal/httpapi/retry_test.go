package httpapi

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bitmat"
	"repro/internal/index"
)

// withBackoff sets the initial and maximum backoff between retries, so a
// test's retries sleep milliseconds instead of DefaultBackoff.
func withBackoff(initial, cap time.Duration) ClientOption {
	return func(c *Client) { c.backoff, c.backoffCap = initial, cap }
}

// flakyHandler answers 5xx for the first fail requests, then delegates.
type flakyHandler struct {
	fail  int32
	code  int
	seen  atomic.Int32
	inner http.Handler
}

func (f *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.seen.Add(1) <= f.fail {
		w.WriteHeader(f.code)
		return
	}
	f.inner.ServeHTTP(w, r)
}

func flakyService(t *testing.T, fail int32, code int) (*httptest.Server, *flakyHandler) {
	t.Helper()
	m := bitmat.MustNew(4, 2)
	m.Set(0, 0, true)
	m.Set(2, 0, true)
	srv, err := index.NewServer(m, []string{"alice", "bob"})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHandler(srv)
	if err != nil {
		t.Fatal(err)
	}
	fh := &flakyHandler{fail: fail, code: code, inner: h}
	ts := httptest.NewServer(fh)
	t.Cleanup(ts.Close)
	return ts, fh
}

func TestClientRetriesTransient5xx(t *testing.T) {
	ts, fh := flakyService(t, 2, http.StatusServiceUnavailable)
	client := NewClient(ts.URL, ts.Client(), withBackoff(time.Millisecond, 4*time.Millisecond))
	got, err := client.Query(context.Background(), "alice")
	if err != nil {
		t.Fatalf("query through two 503s: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("providers = %v", got)
	}
	if n := fh.seen.Load(); n != 3 {
		t.Fatalf("server saw %d requests, want 3 (two failures + success)", n)
	}
}

func TestClientGivesUpAfterRetryBudget(t *testing.T) {
	ts, fh := flakyService(t, 100, http.StatusInternalServerError)
	client := NewClient(ts.URL, ts.Client(), withBackoff(time.Millisecond, 2*time.Millisecond))
	if _, err := client.Query(context.Background(), "alice"); err == nil {
		t.Fatal("persistent 500 succeeded")
	}
	if n := fh.seen.Load(); n != 1+DefaultRetries {
		t.Fatalf("server saw %d requests, want %d", n, 1+DefaultRetries)
	}
}

func TestClientDoesNotRetry4xx(t *testing.T) {
	ts, fh := flakyService(t, 0, 0)
	client := NewClient(ts.URL, ts.Client())
	if _, err := client.Query(context.Background(), "nobody"); !errors.Is(err, ErrOwnerNotFound) {
		t.Fatalf("err = %v, want ErrOwnerNotFound", err)
	}
	if n := fh.seen.Load(); n != 1 {
		t.Fatalf("server saw %d requests for a 404, want 1 (no retry)", n)
	}
}

func TestClientRetryDisabled(t *testing.T) {
	ts, fh := flakyService(t, 1, http.StatusBadGateway)
	client := NewClient(ts.URL, ts.Client(), WithRetries(0))
	if _, err := client.Query(context.Background(), "alice"); err == nil {
		t.Fatal("502 with retries disabled succeeded")
	}
	if n := fh.seen.Load(); n != 1 {
		t.Fatalf("server saw %d requests with retries disabled, want 1", n)
	}
}

func TestClientRetryHonorsCancellation(t *testing.T) {
	// A server that always 503s, a long backoff, and a context cancelled
	// mid-backoff: the call must return promptly with the context error.
	ts, _ := flakyService(t, 1000, http.StatusServiceUnavailable)
	client := NewClient(ts.URL, ts.Client(),
		WithRetries(10), withBackoff(10*time.Second, 10*time.Second))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := client.Query(ctx, "alice")
	if err == nil {
		t.Fatal("cancelled retry loop succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v; backoff ignored the context", elapsed)
	}
}

func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", -1},      // absent: caller falls back to its own backoff
		{"later", -1}, // HTTP-date form unsupported, treated as absent
		{"-3", -1},    // negative is nonsense
		{"1.5", -1},   // delay-seconds is an integer
		{"0", 0},      // valid: retry immediately
		{"2", 2 * time.Second},
		{"9999", RetryAfterCap}, // a server cannot park the client for hours
	}
	for _, c := range cases {
		if got := parseRetryAfter(c.in); got != c.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// retryAfterHandler 503s with a Retry-After header for the first fail
// requests, then delegates.
type retryAfterHandler struct {
	fail  int32
	after string
	seen  atomic.Int32
	inner http.Handler
}

func (h *retryAfterHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.seen.Add(1) <= h.fail {
		w.Header().Set("Retry-After", h.after)
		w.WriteHeader(http.StatusServiceUnavailable)
		return
	}
	h.inner.ServeHTTP(w, r)
}

func TestClientHonorsRetryAfter(t *testing.T) {
	// The client's own backoff is set absurdly long; the server's
	// Retry-After: 0 says "now is fine". If the client ignored the header
	// and used its backoff, this test would take 20s+ and trip the bound.
	ts, _ := flakyService(t, 0, 0)
	fh := &retryAfterHandler{fail: 2, after: "0", inner: mustHandlerOf(t, ts)}
	rts := httptest.NewServer(fh)
	defer rts.Close()
	client := NewClient(rts.URL, rts.Client(),
		withBackoff(10*time.Second, 10*time.Second))
	start := time.Now()
	got, err := client.Query(context.Background(), "alice")
	if err != nil {
		t.Fatalf("query through two Retry-After 503s: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("providers = %v", got)
	}
	if n := fh.seen.Load(); n != 3 {
		t.Fatalf("server saw %d requests, want 3", n)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("took %v; client slept its own backoff instead of Retry-After", elapsed)
	}
}

func TestClientRetryAfterDoesNotSpendBackoff(t *testing.T) {
	// Honoring Retry-After must not advance the exponential backoff
	// schedule: after header-directed retries, an unadorned 503 still gets
	// the client's *first* backoff step, not an escalated one.
	ts, _ := flakyService(t, 0, 0)
	fh := &retryAfterHandler{fail: 3, after: "0", inner: mustHandlerOf(t, ts)}
	rts := httptest.NewServer(fh)
	defer rts.Close()
	client := NewClient(rts.URL, rts.Client(),
		WithRetries(5), withBackoff(time.Millisecond, time.Millisecond))
	if _, err := client.Query(context.Background(), "alice"); err != nil {
		t.Fatalf("query: %v", err)
	}
	// 3 header-directed retries + success must fit inside the retry budget
	// with room to spare.
	if n := fh.seen.Load(); n != 4 {
		t.Fatalf("server saw %d requests, want 4", n)
	}
}

// mustHandlerOf extracts a fresh locator handler like flakyService builds,
// reusing its fixture index.
func mustHandlerOf(t *testing.T, ts *httptest.Server) http.Handler {
	t.Helper()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp, err := ts.Client().Get(ts.URL + r.URL.String())
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
	})
}

func TestClientRetriesConnectionError(t *testing.T) {
	// A server that dies after the first byte exchange is the classic
	// transient network failure. Simpler deterministic stand-in: a base URL
	// where nothing listens — every attempt fails with a connection error
	// and the retry budget must still bound the call.
	client := NewClient("http://127.0.0.1:1", nil, withBackoff(time.Millisecond, 2*time.Millisecond))
	start := time.Now()
	if _, err := client.Query(context.Background(), "alice"); err == nil {
		t.Fatal("dead server succeeded")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("retry loop did not terminate promptly")
	}
}
