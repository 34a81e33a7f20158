package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/httpapi"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// TestGatewayEndToEnd is the acceptance test for the distributed serving
// layer: a real index is partitioned into 3 column shards, each served by
// 2 replica HTTP servers on loopback (the same handler eppi-serve mounts).
// A gateway with caching, hedging, probing and shedding sits in front.
//
// It proves, over HTTP end to end:
//  1. cold cache: every owner's gateway answer equals the single-node
//     full-index answer;
//  2. one replica of every shard is killed mid-test and every owner still
//     answers, identically, from the surviving replicas;
//  3. warm cache: a re-query sweep still matches and is served from cache,
//     and a batch through a second, cold gateway still reaches every
//     owner past the dead replicas;
//  4. the hedge/shed/cache counters are visible in GET /v1/metrics and the
//     gateway spans are visible in GET /v1/traces.
func TestGatewayEndToEnd(t *testing.T) {
	const shards, replicasPer = 3, 2
	full, names, bases, servers := buildShardedFixture(t, 25, 40, shards, replicasPer)

	reg := metrics.NewRegistry()
	tracer := trace.New(64)
	g, err := New(Config{
		Shards:      bases,
		Client:      fastClient(),
		Registry:    reg,
		Tracer:      tracer,
		ProbePeriod: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gw := httptest.NewServer(g)
	defer gw.Close()

	// Ground truth from the unsharded index (what a single-node
	// eppi-serve would answer).
	truth := make(map[string][]int, len(names))
	for _, name := range names {
		providers, err := full.Query(name)
		if err != nil {
			t.Fatal(err)
		}
		truth[name] = providers
	}

	queryAll := func(phase string) {
		t.Helper()
		for _, name := range names {
			resp, err := http.Get(gw.URL + "/v1/query?owner=" + url.QueryEscape(name))
			if err != nil {
				t.Fatalf("%s: query %q: %v", phase, name, err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: query %q = %d: %s", phase, name, resp.StatusCode, body)
			}
			var qr httpapi.QueryResponse
			if err := json.Unmarshal(body, &qr); err != nil {
				t.Fatalf("%s: decode %q: %v", phase, name, err)
			}
			if fmt.Sprint(qr.Providers) != fmt.Sprint(truth[name]) {
				t.Fatalf("%s: query %q = %v, single-node index says %v",
					phase, name, qr.Providers, truth[name])
			}
		}
	}

	// Phase 1: cold cache, all replicas alive.
	queryAll("cold")
	misses := reg.Counter("eppi_gateway_cache_misses_total", "").Value()
	if misses != uint64(len(names)) {
		t.Fatalf("cold sweep: %d cache misses, want %d", misses, len(names))
	}

	// Phase 2: kill replica 0 of every shard mid-test. Wait for the
	// prober to notice, then every owner must still answer identically.
	for _, reps := range servers {
		reps[0].Close()
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		down := 0
		for _, st := range g.shards {
			if !st.replicas[0].up.Load() {
				down++
			}
		}
		if down == shards {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Phase 3: warm cache — every answer is already cached, so this sweep
	// must succeed (and match) regardless of the dead replicas.
	queryAll("warm")
	if hits := reg.Counter("eppi_gateway_cache_hits_total", "").Value(); hits < uint64(len(names)) {
		t.Fatalf("warm sweep: %d cache hits, want >= %d", hits, len(names))
	}

	// Phase 4: force fresh upstream traffic past the cache. A second
	// gateway over the same fleet starts with an empty cache, so one batch
	// of every owner must reach the live replicas through failover.
	coldReg := metrics.NewRegistry()
	cold, err := New(Config{Shards: bases, Client: fastClient(), Registry: coldReg, ProbePeriod: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	coldGW := httptest.NewServer(cold)
	defer coldGW.Close()
	rows, err := httpapi.NewClient(coldGW.URL, nil).QueryBatch(context.Background(), names)
	if err != nil {
		t.Fatalf("batch over degraded fleet: %v", err)
	}
	if len(rows) != len(names) {
		t.Fatalf("batch over degraded fleet returned %d rows, want %d", len(rows), len(names))
	}
	for i, row := range rows {
		if !row.Found || row.Error != "" || fmt.Sprint(row.Providers) != fmt.Sprint(truth[names[i]]) {
			t.Fatalf("batch row %d over degraded fleet = %+v, single-node index says %v", i, row, truth[names[i]])
		}
	}
	if misses := coldReg.Counter("eppi_gateway_cache_misses_total", "").Value(); misses != uint64(len(names)) {
		t.Fatalf("cold batch: %d cache misses, want %d", misses, len(names))
	}

	// Phase 5: healthz reflects the degraded-but-serving fleet.
	hresp, err := http.Get(gw.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz GatewayHealthz
	if err := json.NewDecoder(hresp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hz.Status != "ok" || hz.Shards != shards {
		t.Fatalf("healthz after kill = %+v, want ok with %d shards", hz, shards)
	}
	for k, states := range hz.Replicas {
		if states[0] != "down" || states[1] != "up" {
			t.Fatalf("shard %d replica states = %v, want [down up]", k, states)
		}
	}

	// Phase 6: counters visible in /v1/metrics exposition.
	mresp, err := http.Get(gw.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	exposition := string(mbody)
	for _, metric := range []string{
		"eppi_gateway_cache_hits_total",
		"eppi_gateway_cache_misses_total",
		"eppi_gateway_hedges_total",
		"eppi_gateway_shed_total",
		"eppi_gateway_lookups_total",
		"eppi_gateway_replica_up",
		"eppi_gateway_shards",
	} {
		if !strings.Contains(exposition, metric) {
			t.Errorf("/v1/metrics missing %s", metric)
		}
	}

	// Phase 7: gateway spans visible in /v1/traces.
	tresp, err := http.Get(gw.URL + "/v1/traces?format=text")
	if err != nil {
		t.Fatal(err)
	}
	tbody, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	traces := string(tbody)
	for _, span := range []string{"gateway.query", "gateway.fetch", "gateway.upstream"} {
		if !strings.Contains(traces, span) {
			t.Errorf("/v1/traces missing span %s", span)
		}
	}

	// Phase 8: programmatic lookups agree too (covers the Go API path the
	// eppi-gateway binary does not exercise over HTTP).
	for _, name := range names {
		got, err := g.Lookup(context.Background(), name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(truth[name]) {
			t.Fatalf("Lookup(%q) = %v, want %v", name, got, truth[name])
		}
	}
}
