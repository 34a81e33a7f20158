package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/mathx"
	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/workload"
)

// TestWideSecureConstructEndToEnd is the acceptance gate of the bit-sliced
// path: for every demo policy and at 1 and 8 workers, the wide pipeline
// must publish a matrix bit-identical to the scalar pipeline — same M',
// same β vector, same hidden set, same count — on a geometry that forces
// ragged slabs in every batch (BatchSize 40 < 64 lanes) plus a ragged
// final batch (n = 100).
func TestWideSecureConstructEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m, n := 12, 100
	truth := randomMatrix(rng, m, n, 0.35)
	truth.Set(0, 0, true)
	eps := make([]float64, n)
	for j := range eps {
		eps[j] = 0.3 + 0.6*rng.Float64()
	}

	for _, policy := range []mathx.Policy{mathx.PolicyBasic, mathx.PolicyIncremented, mathx.PolicyChernoff} {
		for _, workers := range []int{1, 8} {
			cfg := secureCfg(23)
			cfg.Policy = policy
			cfg.BatchSize = 40
			cfg.Workers = workers

			scalar, err := Construct(truth, eps, cfg)
			if err != nil {
				t.Fatalf("%v workers=%d scalar: %v", policy, workers, err)
			}
			wcfg := cfg
			wcfg.Wide = true
			wide, err := Construct(truth, eps, wcfg)
			if err != nil {
				t.Fatalf("%v workers=%d wide: %v", policy, workers, err)
			}

			if wide.CommonCount != scalar.CommonCount {
				t.Fatalf("%v workers=%d: wide count %d, scalar %d", policy, workers, wide.CommonCount, scalar.CommonCount)
			}
			if wide.Lambda != scalar.Lambda {
				t.Fatalf("%v workers=%d: λ differs: %v vs %v", policy, workers, wide.Lambda, scalar.Lambda)
			}
			for j := 0; j < n; j++ {
				if wide.Hidden[j] != scalar.Hidden[j] {
					t.Fatalf("%v workers=%d: hidden[%d] differs", policy, workers, j)
				}
				if wide.Betas[j] != scalar.Betas[j] {
					t.Fatalf("%v workers=%d: β[%d] = %v, scalar %v", policy, workers, j, wide.Betas[j], scalar.Betas[j])
				}
			}
			if !wide.Published.Equal(scalar.Published) {
				t.Fatalf("%v workers=%d: published matrix not bit-identical", policy, workers)
			}
			if wide.Secure == nil || wide.Secure.MPCRounds == 0 {
				t.Fatalf("%v workers=%d: wide run recorded no MPC rounds", policy, workers)
			}
		}
	}
}

// The wide path must stay deterministic and self-consistent across repeat
// runs and batch geometries (the count is an exact sum either way, so
// BatchSize cannot change any published bit).
func TestWideSecureDeterministicAcrossBatchSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	truth := randomMatrix(rng, 9, 70, 0.4)
	eps := make([]float64, 70)
	for j := range eps {
		eps[j] = 0.5
	}
	base := secureCfg(55)
	base.Wide = true
	var ref *Result
	for _, batch := range []int{0, 64, 33} {
		cfg := base
		cfg.BatchSize = batch
		res, err := Construct(truth, eps, cfg)
		if err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.CommonCount != ref.CommonCount || !res.Published.Equal(ref.Published) {
			t.Fatalf("batch=%d changes the wide publication", batch)
		}
	}
}

// Wide construction over real TCP sessions and with OT preprocessing:
// protocol-determined outcomes must match the scalar dealer pipeline.
func TestWideSecureTransportsAndTriples(t *testing.T) {
	truth := matrixWithFreqs(6, []int{6, 1, 2, 4, 1})
	eps := []float64{0.4, 0.6, 0.8, 0.5, 0.7}
	base := secureCfg(29)
	base.Policy = mathx.PolicyBasic
	scalar, err := Construct(truth, eps, base)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("tcp", func(t *testing.T) {
		cfg := base
		cfg.Wide = true
		cfg.NewNetwork = func(parties int) (transport.Network, error) { return transport.NewTCP(parties) }
		res, err := Construct(truth, eps, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Published.Equal(scalar.Published) {
			t.Fatal("wide-over-TCP publication differs from scalar")
		}
	})
	t.Run("ot", func(t *testing.T) {
		if testing.Short() {
			t.Skip("wide OT preprocessing deals 64 per-lane base OTs per AND gate (~1 min)")
		}
		// Wide OT preprocessing deals 64 per-lane triples per AND gate at
		// ~tens of ms per pairwise OT, so this subtest runs the smallest
		// meaningful fixture: 2 coordinators, 2 identities, 3 coin bits.
		otTruth := matrixWithFreqs(4, []int{4, 1})
		otEps := []float64{0.5, 0.5}
		cfg := secureCfg(37)
		cfg.Policy = mathx.PolicyBasic
		cfg.C = 2
		cfg.CoinBits = 3
		dealer, err := Construct(otTruth, otEps, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Wide = true
		cfg.Triples = TripleOT
		res, err := Construct(otTruth, otEps, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.CommonCount != dealer.CommonCount {
			t.Fatalf("wide-OT count %d, dealer %d", res.CommonCount, dealer.CommonCount)
		}
		if !res.Published.Equal(dealer.Published) {
			t.Fatal("wide-OT publication differs from scalar dealer run")
		}
	})
}

// The slab-waste gauge must report the padded lanes of both wide passes.
func TestWideSlabWasteGauge(t *testing.T) {
	truth := matrixWithFreqs(6, []int{6, 1, 2})
	eps := []float64{0.4, 0.6, 0.8}
	cfg := secureCfg(31)
	cfg.Policy = mathx.PolicyBasic
	cfg.Wide = true
	reg := metrics.NewRegistry()
	cfg.Metrics = reg
	if _, err := Construct(truth, eps, cfg); err != nil {
		t.Fatal(err)
	}
	// n=3 → one slab per pass, 61 padded lanes each, two passes.
	if v := reg.Gauge("eppi_gmw_slab_waste_slots", "").Value(); v != 2*61 {
		t.Fatalf("slab waste gauge = %v, want %d", v, 2*61)
	}
}

// Rounds and messages of the wide path follow the circuits' depths, not
// the identity count: at m = 9 and BatchSize 40, 100 and 1 000 identities
// take the same protocol rounds and messages. Every tenth identity is held
// by all providers and the rest by one, so both sizes have the same
// common share, hence the same λ and the same compiled Reveal circuit.
func TestWideRoundsIndependentOfN(t *testing.T) {
	run := func(n int) *Result {
		t.Helper()
		freqs := make([]int, n)
		eps := make([]float64, n)
		for j := range freqs {
			freqs[j] = 1
			if j%10 == 0 {
				freqs[j] = 9
			}
			eps[j] = 0.5
		}
		cfg := secureCfg(61)
		cfg.Policy = mathx.PolicyBasic
		cfg.Wide = true
		cfg.BatchSize = 40
		res, err := Construct(matrixWithFreqs(9, freqs), eps, cfg)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.CommonCount != n/10 {
			t.Fatalf("n=%d: CommonCount = %d, want %d", n, res.CommonCount, n/10)
		}
		return res
	}
	small, large := run(100), run(1000)
	if small.Lambda != large.Lambda {
		t.Fatalf("λ differs: %v vs %v", small.Lambda, large.Lambda)
	}
	if s, l := small.Secure.MPCRounds, large.Secure.MPCRounds; s != l {
		t.Errorf("MPC rounds: n=100 took %d, n=1000 took %d", s, l)
	}
	if s, l := small.Secure.MPC.Messages, large.Secure.MPC.Messages; s != l {
		t.Errorf("MPC messages: n=100 sent %d, n=1000 sent %d", s, l)
	}
}

// BenchmarkWideStages times stages B and C of one wide secure construction
// at the secure benchmark's shape: 512 providers × 32 768 identities,
// c = 3, prefix arithmetic, 32 coin bits, batch 128. It reports the
// protocol rounds and the stage wall time (SecureStats.MPCWall) per
// word-AND gate evaluated.
func BenchmarkWideStages(b *testing.B) {
	const m, n = 512, 32768
	d, err := workload.GenerateZipf(workload.ZipfConfig{
		Providers: m, Owners: n, Exponent: 1.0, MaxFrequency: m / 5,
		EpsLow: 0.1, EpsHigh: 0.9, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		Policy: mathx.PolicyChernoff, Gamma: 0.9, Mode: ModeSecure, C: 3, Seed: 1,
		Wide: true, Arithmetic: circuit.StylePrefix, CoinBits: 32, BatchSize: 128,
	}
	var wall time.Duration
	var s *SecureStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Construct(d.Matrix, d.Eps, cfg)
		if err != nil {
			b.Fatal(err)
		}
		s = res.Secure
		wall += s.MPCWall
	}
	andWords := s.CountBelowCircuit.AndGates + s.RevealCircuit.AndGates
	b.ReportMetric(float64(s.MPCRounds), "rounds")
	b.ReportMetric(float64(wall.Nanoseconds())/float64(b.N)/float64(andWords), "ns/word-AND")
}

// TestWideSecureFaultInjection drives the wide pipeline over a faulty
// coordinator network: crash, corruption and total loss must each abort
// the run promptly, exactly like the scalar path.
func TestWideSecureFaultInjection(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	truth := randomMatrix(rng, 9, 70, 0.4)
	eps := make([]float64, 70)
	for j := range eps {
		eps[j] = 0.6
	}
	cases := []struct {
		name string
		plan transport.FaultPlan
	}{
		{"crashed coordinator", transport.FaultPlan{FailSendFrom: map[int]bool{1: true}, Seed: 4}},
		{"corrupted payloads", transport.FaultPlan{CorruptRate: 1, Seed: 5}},
		{"dropped messages", transport.FaultPlan{DropRate: 1, RecvTimeout: 250 * time.Millisecond, Seed: 6}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := faultySecureCfg(11, 2, tc.plan)
			cfg.Wide = true
			cfg.BatchSize = 40 // several concurrent wide batches
			runConstructGuarded(t, truth, eps, cfg)
		})
	}
}
