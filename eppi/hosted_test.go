package eppi

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/epoch"
	"repro/internal/metrics"
)

func TestWriteIndexBeforeConstruct(t *testing.T) {
	net := buildHospitalNetwork(t)
	var buf bytes.Buffer
	if _, err := net.WriteIndex(&buf); !errors.Is(err, ErrNotConstructed) {
		t.Fatalf("error = %v", err)
	}
}

func TestHostedServiceRoundTrip(t *testing.T) {
	net := buildHospitalNetwork(t)
	if _, err := net.ConstructPPI(WithSeed(21)); err != nil {
		t.Fatal(err)
	}
	want, err := net.Query("carol")
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	n, err := net.WriteIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || n != int64(buf.Len()) {
		t.Fatalf("WriteIndex wrote %d, buffer %d", n, buf.Len())
	}

	host, err := ReadHostedService(&buf)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	host.server.Instrument(reg)
	if host.Providers() != net.Providers() || host.Owners() != 3 {
		t.Fatalf("host dims %d/%d", host.Providers(), host.Owners())
	}
	got, err := host.Query("carol")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("hosted query %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hosted query %v, want %v", got, want)
		}
	}
	if got := reg.Counter("eppi_index_queries_total", "").Value(); got != 1 {
		t.Fatalf("host counted %d queries, want 1", got)
	}
	if _, err := host.Query("nobody"); err == nil {
		t.Fatal("unknown owner accepted by host")
	}
}

func TestHostedServiceHTTPHandler(t *testing.T) {
	net := buildHospitalNetwork(t)
	if _, err := net.ConstructPPI(WithSeed(22)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := net.WriteIndex(&buf); err != nil {
		t.Fatal(err)
	}
	host, err := ReadHostedService(&buf)
	if err != nil {
		t.Fatal(err)
	}
	handler, err := host.Handler()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	resp2, err := ts.Client().Get(ts.URL + "/v1/query?owner=carol")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Fatalf("query status %d", resp2.StatusCode)
	}
}

func TestReadHostedServiceGarbage(t *testing.T) {
	if _, err := ReadHostedService(strings.NewReader("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestPublishEpoch(t *testing.T) {
	net := buildHospitalNetwork(t)
	root := t.TempDir()
	if _, err := net.PublishEpoch(root, 2); !errors.Is(err, ErrNotConstructed) {
		t.Fatalf("pre-construction error = %v", err)
	}
	if _, err := net.ConstructPPI(WithSeed(21)); err != nil {
		t.Fatal(err)
	}
	n, err := net.PublishEpoch(root, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("first publication is epoch %d, want 1", n)
	}
	// Every owner answers identically from its shard of the store; each
	// load verifies the whole set against its manifest first.
	owners := 0
	for k := 0; k < 2; k++ {
		srv, e, err := epoch.Load(root, k, 2)
		if err != nil {
			t.Fatal(err)
		}
		if e != n {
			t.Fatalf("shard %d loaded epoch %d, want %d", k, e, n)
		}
		for _, name := range srv.Names() {
			want, err := net.Query(name)
			if err != nil {
				t.Fatal(err)
			}
			got, err := srv.Query(name)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("shard %d answer for %q differs", k, name)
			}
			owners++
		}
	}
	if owners != 3 {
		t.Fatalf("shards cover %d owners, want 3", owners)
	}
}
