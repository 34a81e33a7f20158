package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// toy shrinks a workload to m = 128, n = 512 and drops the 10 s OT word;
// everything else — phases, guards, checks — is what the real run does.
func toy(sp spec) spec {
	sp.providers, sp.owners, sp.otProbe = 128, 512, false
	return sp
}

const toySeconds = 1.5

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json to the harness's own
// tables: same workloads, same metrics, same units, directions and bounds.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	doc := readBenchmarkJSON(t)
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, harness default %v", doc.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("paths %v", doc.Paths)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u, better string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if !unit.MatchString(u) {
			t.Errorf("%s: unit %q", n, u)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better %q", n, better)
		}
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d specs", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, harness %q", i, w.Name, specs[i].name)
		}
		if len([]rune(w.Why)) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is not one line of at most 200 characters", w.Name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, harness %d+%d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range doc.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if want := endToEnd[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better || m.Bound != want.bound {
			t.Errorf("end_to_end[%d] = %+v, harness %+v", i, m, want)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
	for i, m := range doc.PerLayer {
		check(m.Name, m.Unit, m.Better)
		if want := perLayer[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per_layer[%d] = %+v, harness %+v", i, m, want)
		}
	}
}

// printed parses what a run prints: the last line is the result object.
func printed(t *testing.T, who string, res *result, traced bool) line {
	t.Helper()
	var out bytes.Buffer
	if err := res.print(&out, traced); err != nil {
		t.Fatalf("%s: %v", who, err)
	}
	rows := strings.Split(strings.TrimSpace(out.String()), "\n")
	var ln line
	if err := json.Unmarshal([]byte(rows[len(rows)-1]), &ln); err != nil {
		t.Fatalf("%s: last line %q: %v", who, rows[len(rows)-1], err)
	}
	if !ln.Correct || ln.Failed != 0 || ln.Attempted < verifyOps {
		t.Errorf("%s: correct %v, %d of %d failed", who, ln.Correct, ln.Failed, ln.Attempted)
	}
	return ln
}

func wantMetrics(t *testing.T, who string, ln line, table []metric) {
	t.Helper()
	if len(ln.Metrics) != len(table) {
		t.Errorf("%s: %d metrics printed, table has %d", who, len(ln.Metrics), len(table))
	}
	for _, m := range table {
		got, ok := ln.Metrics[m.name]
		if !ok || got.Unit != m.unit {
			t.Errorf("%s: metric %s: printed %+v (present %v), want unit %q", who, m.name, got, ok, m.unit)
		}
	}
}

// TestWorkloadsPrintEveryMetric runs both workloads untraced at toy
// scale: each prints exactly the end-to-end table, none of it zero, and
// no answer fails.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	for _, sp := range specs {
		res, err := run(context.Background(), toy(sp), 7, toySeconds, false, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		ln := printed(t, sp.name, res, false)
		wantMetrics(t, sp.name, ln, endToEnd)
		for name, v := range ln.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: %s = %v, end-to-end metrics must never be 0", sp.name, name, v.Value)
			}
		}
	}
}

// TestTracedRunReproduces runs the secure workload traced, twice with one
// seed: it prints exactly the per-layer table, leaves a loadable Chrome
// trace holding the harness's layer spans with the program's own stage
// spans beneath them, and reproduces every count.
func TestTracedRunReproduces(t *testing.T) {
	secure, _ := findSpec("secure-hot")
	var lines [2]line
	var results [2]*result
	dir := t.TempDir()
	for i := range lines {
		res, err := run(context.Background(), toy(secure), 7, toySeconds, true, dir)
		if err != nil {
			t.Fatal(err)
		}
		results[i], lines[i] = res, printed(t, secure.name, res, true)
	}
	wantMetrics(t, secure.name, lines[0], perLayer)
	for _, name := range []string{"core.secure_secsum_bytes", "core.secure_mpc_bytes", "core.secure_mpc_rounds",
		"core.secure_mpc_msgs", "core.commons", "core.hidden", "privacy.violations", "index.encode_mb"} {
		if a, b := lines[0].Metrics[name].Value, lines[1].Metrics[name].Value; a != b {
			t.Errorf("%s: %v then %v with the same seed", name, a, b)
		}
	}
	if lines[0].Metrics["core.secure_mpc_rounds"].Value == 0 {
		t.Error("secure workload reports no MPC rounds")
	}
	for _, name := range []string{"search_cost", "eps_met_share", "epoch_disk_mb"} {
		if a, b := results[0].endToEnd[name], results[1].endToEnd[name]; a != b {
			t.Errorf("%s: %v then %v with the same seed", name, a, b)
		}
	}

	raw, err := os.ReadFile(filepath.Join(dir, "trace-secure-hot.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct{ Name string } `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"bench.boot", "core.Construct", "secsum.share", "core.publish", "privacy.Compute",
		"epoch.PublishWithReport", "replica.Mirror.Sync", "epoch.LoadAt", "httpapi.Handler.Swap", "client.lookup"} {
		if !names[want] {
			t.Errorf("trace has no %q span", want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; Python gives 3.5, 31.0", q1, q3)
	}
}
