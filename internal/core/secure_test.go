package core

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/mathx"
	"repro/internal/transport"
)

func secureCfg(seed int64) Config {
	return Config{
		Policy: mathx.PolicyChernoff,
		Gamma:  0.9,
		Mode:   ModeSecure,
		C:      3,
		Seed:   seed,
	}
}

func TestSecureWithCommonIdentity(t *testing.T) {
	m := 10
	// Identity 0 on all providers (common), identities 1..4 rare.
	truth := matrixWithFreqs(m, []int{10, 1, 2, 1, 3})
	eps := []float64{0.5, 0.5, 0.5, 0.5, 0.5}
	cfg := secureCfg(7)
	cfg.Policy = mathx.PolicyBasic // basic: common ⇔ σ ≥ 0.5 at ε=0.5
	res, err := Construct(truth, eps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CommonCount != 1 {
		t.Fatalf("CommonCount = %d, want 1", res.CommonCount)
	}
	if !res.Hidden[0] || res.Betas[0] != 1 {
		t.Fatal("common identity not hidden in secure mode")
	}
	if res.Lambda <= 0 {
		t.Fatalf("λ = %v, want > 0", res.Lambda)
	}
	if res.Published.ColCount(0) != m {
		t.Fatal("common column not fully published")
	}
}

func TestSecureRejectsTooFewProviders(t *testing.T) {
	truth := matrixWithFreqs(2, []int{1})
	cfg := secureCfg(1) // C=3 > m=2
	if _, err := Construct(truth, []float64{0.5}, cfg); err == nil {
		t.Fatal("m < C accepted in secure mode")
	}
}

func TestSecureOverTCP(t *testing.T) {
	truth := matrixWithFreqs(6, []int{2, 6, 1})
	eps := []float64{0.4, 0.6, 0.8}
	cfg := secureCfg(11)
	cfg.Policy = mathx.PolicyBasic // basic: common ⇔ σ ≥ ε/(ε+1-ε)… only σ=1 here
	cfg.NewNetwork = func(parties int) (transport.Network, error) { return transport.NewTCP(parties) }
	res, err := Construct(truth, eps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CommonCount != 1 { // identity 1 has σ=1
		t.Fatalf("CommonCount = %d, want 1", res.CommonCount)
	}
	if !res.Published.Covers(truth) {
		t.Fatal("recall broken over TCP")
	}
}

// The OT-preprocessed pipeline must agree with the dealer pipeline on all
// protocol-determined outcomes.
func TestSecureWithOTPreprocessing(t *testing.T) {
	truth := matrixWithFreqs(4, []int{4, 1, 2})
	eps := []float64{0.5, 0.5, 0.5}
	cfg := secureCfg(31)
	cfg.Policy = mathx.PolicyBasic
	cfg.C = 2 // keep the OT count small: n(n-1) OTs per AND gate
	cfg.Triples = TripleOT
	res, err := Construct(truth, eps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Basic policy at ε=0.5: common ⇔ σ ≥ 0.5 ⇔ freq ≥ 2 of 4.
	if res.CommonCount != 2 {
		t.Fatalf("commons = %d, want 2", res.CommonCount)
	}
	if !res.Published.Covers(truth) {
		t.Fatal("recall lost with OT preprocessing")
	}
	dealer := cfg
	dealer.Triples = TripleDealer
	res2, err := Construct(truth, eps, dealer)
	if err != nil {
		t.Fatal(err)
	}
	if res2.CommonCount != res.CommonCount {
		t.Fatal("dealer and OT pipelines disagree on the common count")
	}
	for j := range res.Betas {
		if !res.Hidden[j] && !res2.Hidden[j] && res.Betas[j] != res2.Betas[j] {
			t.Fatalf("β %d differs between preprocessing sources", j)
		}
	}
}

// TestArithmeticShimInert holds the deprecated Config.Arithmetic,
// Config.Wide and Config.BatchSize to no effect: setting them changes
// neither what a secure construction publishes nor what its MPC costs.
func TestArithmeticShimInert(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	m, n := 40, 150
	truth := randomMatrix(rng, m, n, 0.3)
	eps := make([]float64, n)
	for j := range eps {
		eps[j] = 0.1 + 0.8*rng.Float64()
		if j%25 == 0 { // a few commons, so Reveal has identities to hide
			for i := 0; i < m; i++ {
				truth.Set(i, j, true)
			}
		}
	}
	base := secureCfg(41)
	want, err := Construct(truth, eps, base)
	if err != nil {
		t.Fatal(err)
	}
	if want.CommonCount == 0 {
		t.Fatal("shape has no commons")
	}
	for name, set := range map[string]func(*Config){
		"arithmetic+wide": func(c *Config) { c.Arithmetic, c.Wide = circuit.StylePrefix, true },
		"batch=1":         func(c *Config) { c.BatchSize = 1 },
		"batch=128":       func(c *Config) { c.BatchSize = 128 },
	} {
		shim := base
		set(&shim)
		got, err := Construct(truth, eps, shim)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Published.Equal(want.Published) {
			t.Errorf("%s: M′ differs", name)
		}
		if got.CommonCount != want.CommonCount {
			t.Errorf("%s: CommonCount = %d, want %d", name, got.CommonCount, want.CommonCount)
		}
		for j := range want.Betas {
			if got.Hidden[j] != want.Hidden[j] || got.Betas[j] != want.Betas[j] {
				t.Fatalf("%s: identity %d: hidden %v β %v, want hidden %v β %v",
					name, j, got.Hidden[j], got.Betas[j], want.Hidden[j], want.Betas[j])
			}
		}
		gs, ws := got.Secure, want.Secure
		if gs.MPCRounds != ws.MPCRounds || gs.MPC.Bytes != ws.MPC.Bytes {
			t.Errorf("%s: MPC cost %d rounds / %d bytes, want %d / %d",
				name, gs.MPCRounds, gs.MPC.Bytes, ws.MPCRounds, ws.MPC.Bytes)
		}
		if gs.CountBelowCircuit.AndGates != ws.CountBelowCircuit.AndGates ||
			gs.RevealCircuit.AndGates != ws.RevealCircuit.AndGates {
			t.Errorf("%s: AND gates %d + %d, want %d + %d", name,
				gs.CountBelowCircuit.AndGates, gs.RevealCircuit.AndGates,
				ws.CountBelowCircuit.AndGates, ws.RevealCircuit.AndGates)
		}
	}
}

func TestTripleSourceValidation(t *testing.T) {
	truth := matrixWithFreqs(5, []int{2})
	cfg := secureCfg(1)
	cfg.Triples = TripleSource(9)
	if _, err := Construct(truth, []float64{0.5}, cfg); err == nil {
		t.Fatal("unknown triple source accepted")
	}
	if TripleDealer.String() != "dealer" || TripleOT.String() != "ot" || TripleSource(9).String() != "triples(9)" {
		t.Fatal("TripleSource names wrong")
	}
}

func TestSecureDeterministicBySeed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	truth := randomMatrix(rng, 8, 5, 0.4)
	eps := []float64{0.5, 0.5, 0.5, 0.5, 0.5}
	a, err := Construct(truth, eps, secureCfg(77))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Construct(truth, eps, secureCfg(77))
	if err != nil {
		t.Fatal(err)
	}
	if !a.Published.Equal(b.Published) {
		t.Fatal("secure construction not deterministic for fixed seed")
	}
	for j := range a.Betas {
		if a.Betas[j] != b.Betas[j] {
			t.Fatal("β values differ across identical runs")
		}
	}
}

// Secrecy property at the system level: the only frequency-derived values
// the secure pipeline exposes outside circuits are the common COUNT and the
// frequencies of explicitly revealed (non-hidden) identities.
func TestSecureHiddenFrequenciesStayMasked(t *testing.T) {
	m := 10
	truth := matrixWithFreqs(m, []int{10, 10, 1, 1})
	eps := []float64{0.9, 0.9, 0.9, 0.9}
	res, err := Construct(truth, eps, secureCfg(13))
	if err != nil {
		t.Fatal(err)
	}
	// Both commons hidden; a hidden identity's β must be exactly 1 and not
	// a function of its frequency.
	if !res.Hidden[0] || !res.Hidden[1] {
		t.Fatal("commons not hidden")
	}
	if res.Betas[0] != 1 || res.Betas[1] != 1 {
		t.Fatal("hidden β != 1")
	}
}

func BenchmarkSecureConstruct16x8(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	truth := randomMatrix(rng, 16, 8, 0.3)
	eps := make([]float64, 8)
	for j := range eps {
		eps[j] = 0.5
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Construct(truth, eps, secureCfg(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrustedConstruct1000x100(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	truth := randomMatrix(rng, 1000, 100, 0.05)
	eps := make([]float64, 100)
	for j := range eps {
		eps[j] = 0.5
	}
	cfg := Config{Policy: mathx.PolicyChernoff, Gamma: 0.9, Mode: ModeTrusted}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := Construct(truth, eps, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
