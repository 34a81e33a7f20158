package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestBatchEndpointMixedRows(t *testing.T) {
	_, client := testService(t)
	rows, err := client.QueryBatch(context.Background(), []string{"alice", "nobody", "bob owner"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	if !rows[0].Found || len(rows[0].Providers) != 2 || rows[0].Providers[0] != 0 || rows[0].Providers[1] != 2 {
		t.Fatalf("alice row = %+v", rows[0])
	}
	// The miss is in-band: Found false, no error, batch unharmed.
	if rows[1].Found || rows[1].Owner != "nobody" {
		t.Fatalf("miss row = %+v", rows[1])
	}
	if !rows[2].Found || len(rows[2].Providers) != 1 || rows[2].Providers[0] != 1 {
		t.Fatalf("bob row = %+v", rows[2])
	}
}

func TestBatchMatchesSingles(t *testing.T) {
	_, client := testService(t)
	// The empty string is excluded here because GET /v1/query rejects it
	// with 400 (no owner parameter); the batch path treats it as a miss,
	// covered by TestBatchEmptyOwnerIsMiss.
	owners := []string{"alice", "bob owner", "nobody", "alice"}
	rows, err := client.QueryBatch(context.Background(), owners)
	if err != nil {
		t.Fatal(err)
	}
	for i, owner := range owners {
		single, err := client.Query(context.Background(), owner)
		if errors.Is(err, ErrOwnerNotFound) {
			if rows[i].Found {
				t.Fatalf("row %d (%q): batch found, single 404", i, owner)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if !rows[i].Found {
			t.Fatalf("row %d (%q): single found, batch miss", i, owner)
		}
		if fmt.Sprint(rows[i].Providers) != fmt.Sprint(single) {
			t.Fatalf("row %d (%q): batch %v, single %v", i, owner, rows[i].Providers, single)
		}
	}
}

func TestBatchEmptyOwnerIsMiss(t *testing.T) {
	_, client := testService(t)
	rows, err := client.QueryBatch(context.Background(), []string{""})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Found {
		t.Fatalf("rows = %+v, want one in-band miss", rows)
	}
}

func TestBatchEpochHeaderMatchesSnapshot(t *testing.T) {
	ts, client := testService(t)
	rows, epoch, err := client.QueryBatchEpoch(context.Background(), []string{"alice"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The raw header must be present and agree with the decoded epoch.
	body, _ := json.Marshal(BatchQueryRequest{Owners: []string{"alice"}})
	resp, err := ts.Client().Post(ts.URL+"/v1/query/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(EpochHeader); got != fmt.Sprint(epoch) {
		t.Fatalf("epoch header = %q, client decoded %d", got, epoch)
	}
}

func TestBatchOwnerCap(t *testing.T) {
	ts, _ := testService(t)
	owners := make([]string, MaxBatchOwners+1)
	for i := range owners {
		owners[i] = fmt.Sprintf("o%d", i)
	}
	body, _ := json.Marshal(BatchQueryRequest{Owners: owners})
	resp, err := ts.Client().Post(ts.URL+"/v1/query/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

func TestBatchBodyCap(t *testing.T) {
	ts, _ := testService(t)
	// A syntactically valid request body larger than MaxBatchBody.
	huge := `{"owners":["` + strings.Repeat("x", MaxBatchBody) + `"]}`
	resp, err := ts.Client().Post(ts.URL+"/v1/query/batch", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

func TestBatchBadJSON(t *testing.T) {
	ts, _ := testService(t)
	resp, err := ts.Client().Post(ts.URL+"/v1/query/batch", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// The batch endpoint is a read-only POST: the client's GET-only retry
// gate is explicitly opened for it, so transient 5xx/429 answers retry
// exactly like GET lookups do.
func TestBatchClientRetriesTransient5xx(t *testing.T) {
	ts, fh := flakyService(t, 2, http.StatusServiceUnavailable)
	client := NewClient(ts.URL, ts.Client(), withBackoff(time.Millisecond, 4*time.Millisecond))
	rows, err := client.QueryBatch(context.Background(), []string{"alice", "bob"})
	if err != nil {
		t.Fatalf("batch through two 503s: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if n := fh.seen.Load(); n != 3 {
		t.Fatalf("server saw %d requests, want 3 (two failures + success)", n)
	}
}

func TestBatchClientRetries429(t *testing.T) {
	ts, fh := flakyService(t, 1, http.StatusTooManyRequests)
	client := NewClient(ts.URL, ts.Client(), withBackoff(time.Millisecond, 4*time.Millisecond))
	if _, err := client.QueryBatch(context.Background(), []string{"alice"}); err != nil {
		t.Fatalf("batch through a 429: %v", err)
	}
	if n := fh.seen.Load(); n != 2 {
		t.Fatalf("server saw %d requests, want 2", n)
	}
}

func TestBatchClientRetriesTransportError(t *testing.T) {
	// The first attempt dies with a dropped connection (a transport
	// error, not an HTTP status); the retry must land on the real handler.
	ts, fh := flakyService(t, 0, 0)
	real := fh.inner
	fh.inner = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fh.seen.Load() == 1 {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("no hijacker")
				return
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			conn.Close() // mid-request connection drop -> transport error
			return
		}
		real.ServeHTTP(w, r)
	})
	client := NewClient(ts.URL, ts.Client(), withBackoff(time.Millisecond, 4*time.Millisecond))
	rows, err := client.QueryBatch(context.Background(), []string{"alice"})
	if err != nil {
		t.Fatalf("batch through a dropped connection: %v", err)
	}
	if len(rows) != 1 || !rows[0].Found {
		t.Fatalf("rows = %+v", rows)
	}
	if n := fh.seen.Load(); n != 2 {
		t.Fatalf("server saw %d requests, want 2 (drop + success)", n)
	}
}

func TestBatchClientHonorsRetryAfter(t *testing.T) {
	ts, fh := flakyService(t, 0, 0)
	real := fh.inner
	fh.inner = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fh.seen.Load() == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		real.ServeHTTP(w, r)
	})
	// Backoff is configured near-zero, so a prompt second request would
	// arrive within a few ms; honoring Retry-After: 1 forces >= 1s.
	client := NewClient(ts.URL, ts.Client(), withBackoff(time.Microsecond, time.Microsecond))
	start := time.Now()
	if _, err := client.QueryBatch(context.Background(), []string{"alice"}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Fatalf("second attempt after %v, want >= 1s (Retry-After ignored)", elapsed)
	}
}

func TestBatchClientCancellationNoGoroutineLeak(t *testing.T) {
	ts, _ := flakyService(t, 1000, http.StatusServiceUnavailable)
	client := NewClient(ts.URL, ts.Client(),
		WithRetries(10), withBackoff(10*time.Second, 10*time.Second))
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := client.QueryBatch(ctx, []string{"alice", "bob"})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let it enter the backoff sleep
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled batch call never returned")
	}
	// The retry loop must not strand a goroutine in its backoff timer.
	// (The transport's idle-connection loops are not the retry loop's
	// doing — drop them so only a genuine leak can fail the count.)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		ts.Client().CloseIdleConnections()
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: before cancel %d, after %d", before, runtime.NumGoroutine())
}
