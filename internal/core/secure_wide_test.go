package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/mathx"
	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/workload"
)

// TestWideSecureConstructEndToEnd runs every demo policy at 1 and 8
// workers on a geometry that forces ragged words in every batch (BatchSize
// 40 < 64 lanes) plus a ragged final batch (n = 100): the two worker
// counts must publish the same M′, β vector, hidden set and count, with
// perfect recall. TestSecurePublishedGolden pins published values on its
// own fixture.
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
		var ref *Result
		for _, workers := range []int{1, 8} {
			cfg := secureCfg(23)
			cfg.Policy = policy
			cfg.BatchSize = 40
			cfg.Workers = workers
			res, err := Construct(truth, eps, cfg)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", policy, workers, err)
			}
			if !res.Published.Covers(truth) {
				t.Fatalf("%v workers=%d: recall lost", policy, workers)
			}
			if res.Secure == nil || res.Secure.MPCRounds == 0 {
				t.Fatalf("%v workers=%d: recorded no MPC rounds", policy, workers)
			}
			if ref == nil {
				ref = res
				continue
			}
			resultsEqual(t, ref, res)
		}
	}
}

// The secure path must stay deterministic and self-consistent across
// batch geometries (the count is an exact sum either way, so BatchSize
// cannot change any published bit of this fixture).
func TestWideSecureDeterministicAcrossBatchSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	truth := randomMatrix(rng, 9, 70, 0.4)
	eps := make([]float64, 70)
	for j := range eps {
		eps[j] = 0.5
	}
	base := secureCfg(55)
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
			t.Fatalf("batch=%d changes the publication", batch)
		}
	}
}

// Construction over real TCP sessions and with OT preprocessing: the
// publication must match the in-memory dealer pipeline's.
func TestWideSecureTransportsAndTriples(t *testing.T) {
	truth := matrixWithFreqs(6, []int{6, 1, 2, 4, 1})
	eps := []float64{0.4, 0.6, 0.8, 0.5, 0.7}
	base := secureCfg(29)
	base.Policy = mathx.PolicyBasic
	inmem, err := Construct(truth, eps, base)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("tcp", func(t *testing.T) {
		cfg := base
		cfg.NewNetwork = func(parties int) (transport.Network, error) { return transport.NewTCP(parties) }
		res, err := Construct(truth, eps, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Published.Equal(inmem.Published) {
			t.Fatal("publication over TCP differs from the in-memory run")
		}
	})
	t.Run("ot", func(t *testing.T) {
		// OT preprocessing pays public-key operations per live lane of
		// every AND gate, so this subtest runs the smallest meaningful
		// fixture: 2 coordinators, 2 identities, 3 coin bits.
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
		cfg.Triples = TripleOT
		res, err := Construct(otTruth, otEps, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.CommonCount != dealer.CommonCount {
			t.Fatalf("OT count %d, dealer %d", res.CommonCount, dealer.CommonCount)
		}
		if !res.Published.Equal(dealer.Published) {
			t.Fatal("OT publication differs from the dealer run")
		}
	})
}

// The slab-waste gauge must report the padded lanes of both passes.
func TestWideSlabWasteGauge(t *testing.T) {
	truth := matrixWithFreqs(6, []int{6, 1, 2})
	eps := []float64{0.4, 0.6, 0.8}
	cfg := secureCfg(31)
	cfg.Policy = mathx.PolicyBasic
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

// Rounds and messages of stages B and C follow the circuits' depths, not
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

// BenchmarkWideStages times stages B and C of one secure construction
// at the secure benchmark's shape: 512 providers × 32 768 identities,
// c = 3, 32 coin bits, batch 128. It reports the protocol rounds (33:
// 11 for CountBelowSlice, 9 for the count opener, 13 for RevealSlice) and
// the stage wall time (SecureStats.MPCWall) per word-AND gate evaluated
// (10 240 + 988 + 20 992 of them).
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
		CoinBits: 32, BatchSize: 128,
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

// TestWideSecureFaultInjection drives the pipeline over a faulty
// coordinator network with several count batches: crash, corruption and
// total loss must each abort the run promptly.
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
			cfg.BatchSize = 40
			runConstructGuarded(t, truth, eps, cfg)
		})
	}
}
