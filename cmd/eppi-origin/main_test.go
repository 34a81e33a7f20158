package main

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/httpapi"
	"repro/internal/mathx"
	"repro/internal/metrics"
	"repro/internal/replica"
	"repro/internal/workload"
)

func publishStore(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	d, err := workload.GenerateZipf(workload.ZipfConfig{Providers: 10, Owners: 8, Exponent: 1.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Construct(d.Matrix, d.Eps, core.Config{
		Policy: mathx.PolicyChernoff, Gamma: 0.9, Mode: core.ModeTrusted, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	pub := epoch.Publisher{Root: root}
	if _, err := pub.Publish(res.Published, d.Names, 1); err != nil {
		t.Fatal(err)
	}
	return root
}

func TestRunRejectsBadFlags(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, []string{"-log-level", "error"}); err == nil || !strings.Contains(err.Error(), "-store") {
		t.Fatalf("missing -store: %v", err)
	}
	if err := run(ctx, []string{"-store", "/does/not/exist", "-log-level", "error"}); err == nil {
		t.Fatal("nonexistent store accepted")
	}
}

// TestOriginServeEndToEnd exercises the wiring run() sets up: the
// replication API plus the metrics route on one listener, with graceful
// shutdown on cancel.
func TestOriginServeEndToEnd(t *testing.T) {
	store := publishStore(t)

	reg := metrics.NewRegistry()
	origin := replica.NewOrigin(store, replica.WithOriginMetrics(reg))
	mux := http.NewServeMux()
	mux.Handle("/", origin)
	mux.Handle("GET /v1/metrics", reg)

	listener, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- httpapi.Serve(ctx, listener, mux, slog.New(slog.NewTextHandler(io.Discard, nil)))
	}()
	base := "http://" + listener.Addr().String()

	resp, err := http.Get(base + "/v1/epochs/current")
	if err != nil {
		t.Fatal(err)
	}
	var cur replica.CurrentResponse
	if err := json.NewDecoder(resp.Body).Decode(&cur); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || cur.Epoch != 1 {
		t.Fatalf("current = %d %+v", resp.StatusCode, cur)
	}

	resp, err = http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "eppi_origin_requests_total") {
		t.Fatalf("metrics route: status %d, body %q", resp.StatusCode, string(body))
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not stop")
	}
}
