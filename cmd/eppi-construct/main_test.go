package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/mathx"
	"repro/internal/shard"
	"repro/internal/workload"
)

func TestConstructTrusted(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-providers", "60", "-owners", "20", "-seed", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"constructed ε-PPI", "mode=trusted", "search cost", "sample owner outcomes"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestConstructSecure(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-providers", "8", "-owners", "4", "-secure", "-c", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"mode=secure", "SecSumShare", "CountBelow", "MPC traffic"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// The index -secure exports must equal the matrix core.Construct publishes
// in secure mode on the same dataset and seed.
func TestConstructSecureExportMatchesScalar(t *testing.T) {
	const providers, owners, seed = 12, 70, 5
	path := filepath.Join(t.TempDir(), "index.eppi")
	var out bytes.Buffer
	err := run([]string{"-providers", "12", "-owners", "70", "-seed", "5", "-secure", "-c", "3",
		"-out", path, "-log-level", "error"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	srv, err := index.Read(f)
	if err != nil {
		t.Fatal(err)
	}

	d, err := workload.GenerateZipf(workload.ZipfConfig{Providers: providers, Owners: owners, Exponent: 1.1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Construct(d.Matrix, d.Eps, core.Config{
		Policy: mathx.PolicyChernoff, Delta: 0.02, Gamma: 0.9, Mode: core.ModeSecure, C: 3, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !srv.PublishedMatrix().Equal(want.Published) {
		t.Fatal("-secure export differs from the secure construction")
	}
}

func TestConstructPolicies(t *testing.T) {
	for _, policy := range []string{"basic", "inc-exp", "chernoff"} {
		var out bytes.Buffer
		if err := run([]string{"-providers", "30", "-owners", "8", "-policy", policy}, &out); err != nil {
			t.Fatalf("policy %s: %v", policy, err)
		}
	}
	var out bytes.Buffer
	if err := run([]string{"-policy", "nonsense"}, &out); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestConstructTraceExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var out bytes.Buffer
	err := run([]string{"-providers", "9", "-owners", "6", "-secure", "-c", "3",
		"-trace", path, "-log-level", "error"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("invalid Chrome trace JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range file.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"core.construct", "secsum.share", "mpc.countbelow",
		"mpc.reveal", "gmw.and_rounds", "core.publish"} {
		if !names[want] {
			t.Errorf("trace export missing span %q", want)
		}
	}
}

func TestConstructBadLogConfig(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-log-level", "shout"}, &out); err == nil {
		t.Error("unknown log level accepted")
	}
}

func TestConstructExportIndex(t *testing.T) {
	path := filepath.Join(t.TempDir(), "index.eppi")
	var out bytes.Buffer
	if err := run([]string{"-providers", "10", "-owners", "6", "-out", path}, &out); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	srv, err := index.Read(f)
	if err != nil {
		t.Fatalf("exported index unreadable: %v", err)
	}
	if srv.Providers() != 10 || srv.Owners() != 6 {
		t.Fatalf("exported dims %dx%d", srv.Providers(), srv.Owners())
	}
}

func TestConstructExportShardSet(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "shards")
	var out bytes.Buffer
	if err := run([]string{"-providers", "10", "-owners", "6", "-shards", "2", "-out", dir}, &out); err != nil {
		t.Fatal(err)
	}
	man, err := shard.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Shards != 2 || man.Owners != 6 {
		t.Fatalf("manifest = %+v", man)
	}
	if err := man.Verify(dir); err != nil {
		t.Fatalf("fresh shard set fails verification: %v", err)
	}
	if _, err := man.LoadShard(dir, 1); err != nil {
		t.Fatal(err)
	}
	// -shards without -out is rejected.
	if err := run([]string{"-providers", "10", "-owners", "6", "-shards", "2"}, &out); err == nil {
		t.Error("-shards without -out accepted")
	}
}
