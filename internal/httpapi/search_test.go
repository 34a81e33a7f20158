package httpapi

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/index"
)

// TestSearchRouteGone pins that the node answers only QueryPPI: no
// substring search, and so no bulk feed of every owner's providers. The
// /v1/stats load summary is gone too: the registry's eppi_index_* series
// are the node's only load counters.
func TestSearchRouteGone(t *testing.T) {
	ts, _ := testService(t)
	for _, q := range []string{"/v1/search?q=", "/v1/search?q=bob", "/v1/stats"} {
		resp, err := http.Get(ts.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", q, resp.StatusCode)
		}
	}
}

func TestHealthzReportsShard(t *testing.T) {
	m := bitmat.MustNew(4, 1)
	srv, err := index.NewServer(m, []string{"alice"})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.SetShard(2, 5); err != nil {
		t.Fatal(err)
	}
	h, err := NewHandler(srv)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()

	client := NewClient(ts.URL, ts.Client())
	hz, err := client.Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if hz.Shard == nil || hz.Shard.ID != 2 || hz.Shard.Of != 5 {
		t.Fatalf("healthz shard = %+v, want 2/5", hz.Shard)
	}

	// Wire shape: the field is absent entirely for an unsharded index.
	_, full := testService(t)
	raw, err := http.Get(full.base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Body.Close()
	var loose map[string]any
	if err := json.NewDecoder(raw.Body).Decode(&loose); err != nil {
		t.Fatal(err)
	}
	if _, present := loose["shard"]; present {
		t.Fatal("unsharded healthz carries a shard field")
	}
}
