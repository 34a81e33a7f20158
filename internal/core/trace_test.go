package core

import (
	"context"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/mathx"
	"repro/internal/trace"
	"repro/internal/transport"
)

// traceFixture runs one secure construction with tracing on and returns
// the sealed trace.
func traceFixture(t *testing.T, mutate func(*Config)) *trace.Trace {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	m, n := 9, 6
	truth := randomMatrix(rng, m, n, 0.3)
	truth.Set(0, 0, true)
	eps := make([]float64, n)
	for j := range eps {
		eps[j] = 0.4
	}
	cfg := secureCfg(11)
	cfg.Tracer = trace.New(4)
	if mutate != nil {
		mutate(&cfg)
	}
	if _, err := Construct(truth, eps, cfg); err != nil {
		t.Fatal(err)
	}
	traces := cfg.Tracer.Recent()
	if len(traces) != 1 {
		t.Fatalf("recorded %d traces, want 1", len(traces))
	}
	return traces[0]
}

// spanTree renders the structural skeleton of a trace — span names in
// depth-first order with nesting depth — so two runs can be compared
// independent of timing, IDs and traffic volumes.
func spanTree(tr *trace.Trace) string {
	byParent := map[trace.SpanID][]trace.SpanData{}
	var rootID trace.SpanID
	for _, s := range tr.Spans {
		if s.Parent == 0 {
			rootID = s.ID
		}
		byParent[s.Parent] = append(byParent[s.Parent], s)
	}
	var b strings.Builder
	var walk func(id trace.SpanID, depth int)
	walk = func(id trace.SpanID, depth int) {
		for _, s := range byParent[id] {
			b.WriteString(strings.Repeat("  ", depth))
			b.WriteString(s.Name)
			b.WriteByte('\n')
			walk(s.ID, depth+1)
		}
	}
	root := tr.Root()
	b.WriteString(root.Name)
	b.WriteByte('\n')
	walk(rootID, 1)
	return b.String()
}

func TestSecureSpanTreeIdenticalOverTransports(t *testing.T) {
	inmem := traceFixture(t, nil)
	tcp := traceFixture(t, func(cfg *Config) {
		cfg.NewNetwork = func(parties int) (transport.Network, error) { return transport.NewTCP(parties) }
	})
	if a, b := spanTree(inmem), spanTree(tcp); a != b {
		t.Fatalf("span trees differ between transports:\n--- inmem ---\n%s--- tcp ---\n%s", a, b)
	}
}

func TestSecureTraceCoversAllPhases(t *testing.T) {
	tr := traceFixture(t, nil)
	tree := spanTree(tr)
	for _, want := range []string{
		"core.construct", "core.construct.run", "core.beta_thresholds",
		"secsum.share", "secsum.distribute", "secsum.aggregate", "secsum.coordinate",
		"mpc.countbelow", "mpc.reveal",
		"gmw.input_share", "gmw.and_rounds", "gmw.output",
		"core.mixing", "core.publish",
	} {
		if !strings.Contains(tree, want) {
			t.Errorf("trace missing span %q:\n%s", want, tree)
		}
	}
	if tr.Root().Name != "core.construct" {
		t.Errorf("root span %q, want core.construct", tr.Root().Name)
	}
	// MPC spans must have attributed transport traffic.
	var mpcBytes uint64
	for _, s := range tr.Spans {
		if strings.HasPrefix(s.Name, "mpc.") || s.Name == "secsum.share" {
			mpcBytes += s.Bytes
		}
	}
	if mpcBytes == 0 {
		t.Error("no transport bytes attributed to protocol spans")
	}
}

func TestSecureTraceWithOTPreprocessing(t *testing.T) {
	if testing.Short() {
		t.Skip("OT preprocessing is expensive")
	}
	tr := traceFixture(t, func(cfg *Config) {
		cfg.Triples = TripleOT
		cfg.BatchSize = 3
	})
	tree := spanTree(tr)
	if !strings.Contains(tree, "gmw.ot_preprocess") {
		t.Fatalf("trace missing gmw.ot_preprocess span:\n%s", tree)
	}
}

func TestTrustedTracePhases(t *testing.T) {
	truth, _ := bitmat.New(4, 3)
	truth.Set(0, 0, true)
	tracer := trace.New(2)
	cfg := Config{Policy: mathx.PolicyChernoff, Gamma: 0.9, Mode: ModeTrusted, Seed: 1, Tracer: tracer}
	if _, err := Construct(truth, []float64{0.3, 0.3, 0.3}, cfg); err != nil {
		t.Fatal(err)
	}
	if tracer.Len() != 1 {
		t.Fatalf("recorded %d traces, want 1", tracer.Len())
	}
	tree := spanTree(tracer.Recent()[0])
	for _, want := range []string{"core.beta_thresholds", "core.aggregate", "core.mixing", "core.publish"} {
		if !strings.Contains(tree, want) {
			t.Errorf("trusted trace missing %q:\n%s", want, tree)
		}
	}
}

func TestConstructNestsUnderCallerSpan(t *testing.T) {
	truth, _ := bitmat.New(4, 3)
	truth.Set(0, 0, true)
	tracer := trace.New(2)
	ctx, root := tracer.StartRoot(context.Background(), "caller")
	cfg := Config{Policy: mathx.PolicyChernoff, Gamma: 0.9, Mode: ModeTrusted, Seed: 1, Tracer: tracer}
	if _, err := ConstructCtx(ctx, truth, []float64{0.3, 0.3, 0.3}, cfg); err != nil {
		t.Fatal(err)
	}
	root.End()
	if tracer.Len() != 1 {
		t.Fatalf("recorded %d traces, want 1 (construct must not open its own root)", tracer.Len())
	}
	tr := tracer.Recent()[0]
	if tr.Root().Name != "caller" {
		t.Fatalf("root span %q, want caller", tr.Root().Name)
	}
	if !strings.Contains(spanTree(tr), "core.construct.run") {
		t.Fatal("construct spans not nested under caller trace")
	}
}

func TestConstructUntracedRecordsNothing(t *testing.T) {
	truth, _ := bitmat.New(4, 3)
	truth.Set(0, 0, true)
	cfg := Config{Policy: mathx.PolicyChernoff, Gamma: 0.9, Mode: ModeTrusted, Seed: 1}
	if _, err := Construct(truth, []float64{0.3, 0.3, 0.3}, cfg); err != nil {
		t.Fatal(err)
	}
}

// Publication shards by rows, so a construct records ⌈m/rowShard⌉
// core.publish.shard spans however wide the matrix. At 4 000 × 16 384 the
// former column × row tiles alone (256 · 32) filled the tracer's per-trace
// cap and the stage span was dropped.
func TestPublishSpanSurvivesTracerCap(t *testing.T) {
	const m, n = 4000, 16384
	truth := bitmat.MustNew(m, n)
	for j := 0; j < n; j++ {
		truth.Set(j%m, j, true)
	}
	eps := make([]float64, n)
	for j := range eps {
		eps[j] = 0.5
	}
	tracer := trace.New(1)
	cfg := Config{Policy: mathx.PolicyChernoff, Gamma: 0.9, Mode: ModeTrusted, Seed: 1, Tracer: tracer}
	if _, err := Construct(truth, eps, cfg); err != nil {
		t.Fatal(err)
	}
	if d := tracer.Dropped(); d != 0 {
		t.Fatalf("%d spans dropped", d)
	}
	stage, shards, rows := 0, 0, 0
	for _, s := range tracer.Recent()[0].Spans {
		switch s.Name {
		case "core.publish":
			stage++
		case "core.publish.shard":
			shards++
			for _, a := range s.Attrs {
				if a.Key == "rows" {
					k, _ := strconv.Atoi(a.Value)
					rows += k
				}
			}
		}
	}
	if want := (m + rowShard - 1) / rowShard; stage != 1 || shards != want || rows != m {
		t.Fatalf("core.publish spans = %d, shard spans = %d covering %d rows; want 1, %d, %d", stage, shards, rows, want, m)
	}
}
