package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/httpapi"
	"repro/internal/index"
	"repro/internal/mathx"
	"repro/internal/metrics"
	"repro/internal/privacy"
	"repro/internal/workload"
)

// publishStore constructs an index over a synthetic network and publishes
// it, with its sealed privacy report, as the next epoch of a store at
// root — what eppi-construct -epoch-dir does. It returns the unsharded
// index, the answer a single full node would give.
func publishStore(t *testing.T, root string, providers, owners, shards int, seed int64) *index.Server {
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
	rep, _, err := privacy.Compute(privacy.Input{
		Truth: d.Matrix, Published: res.Published, Names: d.Names, Eps: d.Eps,
		Thresholds: res.Thresholds, Hidden: res.Hidden,
		Policy: mathx.PolicyChernoff.String(), Gamma: 0.9,
		Lambda: res.Lambda, Xi: res.Xi,
	})
	if err != nil {
		t.Fatal(err)
	}
	pub := epoch.Publisher{Root: root}
	if _, err := pub.PublishWithReport(res.Published, d.Names, shards, rep, nil); err != nil {
		t.Fatal(err)
	}
	full, err := index.NewServer(res.Published, d.Names)
	if err != nil {
		t.Fatal(err)
	}
	return full
}

func TestLoadEpochReport(t *testing.T) {
	root := t.TempDir()
	publishStore(t, root, 20, 8, 1, 1)
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	// The node serves the publisher's report, sealed (checksummed) so
	// /v1/privacy clients can verify it.
	rep := loadEpochReport(logger, root, 1)
	if rep == nil {
		t.Fatal("published epoch serves no privacy report")
	}
	if rep.Checksum == "" {
		t.Error("served privacy report is not sealed")
	}
	if rep.Identities != 8 || rep.Providers != 20 || rep.Epoch != 1 {
		t.Errorf("report dims %dx%d epoch %d", rep.Providers, rep.Identities, rep.Epoch)
	}
	// A report-less epoch serves fine, with no report.
	pub := epoch.Publisher{Root: root}
	full, err := epoch.LoadAt(root, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Publish(full.PublishedMatrix(), full.Names(), 1); err != nil {
		t.Fatal(err)
	}
	if rep := loadEpochReport(logger, root, 2); rep != nil {
		t.Errorf("report-less epoch 2 served report %+v", rep)
	}
}

// freeAddr returns a loopback address nothing listens on right now.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// TestRunServesStoreShard boots the binary's run path from a 2-shard
// store: the node reports its shard and epoch, answers every owner of its
// shard exactly as the full index does, and shuts down cleanly.
func TestRunServesStoreShard(t *testing.T) {
	root := t.TempDir()
	full := publishStore(t, root, 20, 8, 2, 1)
	addr := freeAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", addr, "-epoch-dir", root, "-shard", "1/2", "-log-level", "error"})
	}()
	client := httpapi.NewClient("http://"+addr, nil)
	var hz httpapi.HealthzResponse
	for deadline := time.Now().Add(10 * time.Second); ; {
		var err error
		if hz, err = client.Healthz(ctx); err == nil {
			break
		}
		select {
		case err := <-done:
			t.Fatalf("run exited before serving: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("node never came up: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if hz.Shard == nil || hz.Shard.ID != 1 || hz.Shard.Of != 2 || hz.Epoch != 1 {
		t.Fatalf("healthz = %+v, want shard 1/2 at epoch 1", hz)
	}
	shard, err := epoch.LoadAt(root, 1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if shard.Owners() == 0 || shard.Owners() >= full.Owners() {
		t.Fatalf("shard 1/2 holds %d of %d owners", shard.Owners(), full.Owners())
	}
	for _, name := range shard.Names() {
		want, err := full.Query(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := client.Query(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("node answer for %q = %v, full index says %v", name, got, want)
		}
	}
	cancel()
	waitServe(t, done)
}

// TestRunBootErrors pins that the node boots only from a loadable store
// holding the requested shard, and that the retired boot flags are gone.
func TestRunBootErrors(t *testing.T) {
	// Cancelled up front: a run that wrongly boots shuts down at once and
	// returns nil instead of serving forever.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	store := t.TempDir()
	publishStore(t, store, 12, 6, 2, 3)
	garbage := t.TempDir()
	if err := os.WriteFile(filepath.Join(garbage, epoch.CurrentName), []byte("garbage"), 0o600); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"no -epoch-dir", nil},
		{"missing store", []string{"-epoch-dir", filepath.Join(t.TempDir(), "missing")}},
		{"garbage store", []string{"-epoch-dir", garbage}},
		{"wrong shard count", []string{"-epoch-dir", store, "-shard", "0/3"}},
		{"2-shard store without -shard", []string{"-epoch-dir", store}},
		{"bad -shard", []string{"-epoch-dir", store, "-shard", "1/2/3"}},
	} {
		if err := run(ctx, append(tc.args, "-addr", "127.0.0.1:0", "-log-level", "error")); err == nil {
			t.Errorf("%s: run booted", tc.name)
		}
	}
	if err := run(ctx, nil); err == nil || !strings.Contains(err.Error(), "-epoch-dir is required") {
		t.Errorf("no -epoch-dir: err = %v, want the required-flag error", err)
	}
	for _, retired := range []string{"-index", "-providers", "-owners", "-seed"} {
		err := run(ctx, []string{"-epoch-dir", store, retired, "1"})
		if err == nil || errors.Is(err, flag.ErrHelp) || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: err = %v, want an undefined flag", retired, err)
		}
	}
}

// startServe launches serve() on a loopback listener and returns the base
// URL, the cancel that triggers graceful shutdown, and the error channel.
func startServe(t *testing.T, handler http.Handler) (string, context.CancelFunc, chan error) {
	t.Helper()
	listener, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, listener, handler, slog.New(slog.NewTextHandler(io.Discard, nil)), nil) }()
	return "http://" + listener.Addr().String(), cancel, done
}

func waitServe(t *testing.T, done chan error) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not stop")
	}
}

func TestServeEndToEnd(t *testing.T) {
	root := t.TempDir()
	publishStore(t, root, 10, 4, 1, 5)
	srv, _, err := epoch.Load(root, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	handler, err := httpapi.NewHandler(srv)
	if err != nil {
		t.Fatal(err)
	}
	base, cancel, done := startServe(t, handler)
	defer cancel()

	client := httpapi.NewClient(base, nil)
	hz, err := client.Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if hz.Providers != 10 || hz.Owners != 4 {
		t.Fatalf("healthz = %+v", hz)
	}
	cancel()
	waitServe(t, done)
}

func TestServeMetricsEndpoint(t *testing.T) {
	// The wiring eppi-serve sets up with -metrics (the default): a registry
	// through WithMetrics instruments both the middleware and the index, and
	// /v1/metrics serves the exposition.
	root := t.TempDir()
	publishStore(t, root, 10, 4, 1, 5)
	srv, _, err := epoch.Load(root, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	handler, err := httpapi.NewHandler(srv, httpapi.WithMetrics(metrics.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	base, cancel, done := startServe(t, handler)
	defer cancel()

	client := httpapi.NewClient(base, nil)
	if _, err := client.Healthz(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		`eppi_http_requests_total{class="2xx",route="healthz"} 1`,
		"# TYPE eppi_http_request_seconds histogram",
		"# TYPE eppi_index_queries_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, text)
		}
	}
	cancel()
	waitServe(t, done)
}

func TestServeDrainsInflightRequests(t *testing.T) {
	// A request in flight when the signal arrives must complete (Shutdown
	// semantics), not be cut off as the old Close-based stop did.
	release := make(chan struct{})
	started := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
		io.WriteString(w, "done")
	})
	base, cancel, done := startServe(t, mux)
	defer cancel()

	got := make(chan error, 1)
	go func() {
		resp, err := http.Get(base + "/slow")
		if err != nil {
			got <- err
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && string(body) != "done" {
			err = io.ErrUnexpectedEOF
		}
		got <- err
	}()
	<-started
	cancel() // "signal" arrives while /slow is in flight
	time.Sleep(20 * time.Millisecond)
	close(release)
	if err := <-got; err != nil {
		t.Fatalf("in-flight request failed during shutdown: %v", err)
	}
	waitServe(t, done)
}

func TestParseShardSpec(t *testing.T) {
	if k, of, err := parseShardSpec("1/3"); err != nil || k != 1 || of != 3 {
		t.Fatalf("parseShardSpec(1/3) = %d, %d, %v", k, of, err)
	}
	for _, bad := range []string{"", "x", "3/3", "-1/2", "1-2", "2", "1/2/3", "0/2x", "0/", "/2", " 0/2"} {
		if _, _, err := parseShardSpec(bad); err == nil {
			t.Errorf("parseShardSpec(%q) accepted", bad)
		}
	}
}

func TestServeFinalSnapshotAfterDrain(t *testing.T) {
	// The final metrics snapshot is logged only after the drain finishes,
	// so its numbers include the last in-flight request.
	release := make(chan struct{})
	started := make(chan struct{})
	reg := metrics.NewRegistry()
	requests := reg.Counter("test_requests_total", "requests handled")
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
		requests.Inc()
		io.WriteString(w, "done")
	})
	listener, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var logBuf syncBuffer
	logger := slog.New(slog.NewTextHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- serve(ctx, listener, mux, logger, reg) }()

	got := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + listener.Addr().String() + "/slow")
		if err == nil {
			resp.Body.Close()
		}
		got <- err
	}()
	<-started
	cancel() // shutdown begins while /slow is in flight
	time.Sleep(20 * time.Millisecond)
	close(release)
	if err := <-got; err != nil {
		t.Fatalf("in-flight request failed: %v", err)
	}
	waitServe(t, done)
	logs := logBuf.String()
	if !strings.Contains(logs, "final metrics snapshot") {
		t.Fatalf("no final snapshot logged:\n%s", logs)
	}
	// The snapshot exposition (debug line) includes the counter the
	// in-flight request incremented — proof it was taken post-drain.
	if !strings.Contains(logs, "test_requests_total 1") {
		t.Fatalf("final snapshot missed the drained request's counter:\n%s", logs)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer for concurrent log writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
