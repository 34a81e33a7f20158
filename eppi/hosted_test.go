package eppi

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

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
	if host.server.Providers() != len(net.providers) || host.server.Owners() != 3 {
		t.Fatalf("host dims %d/%d", host.server.Providers(), host.server.Owners())
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
