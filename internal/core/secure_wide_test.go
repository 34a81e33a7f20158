package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/mathx"
	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/workload"
)

// TestWideSecureConstructEndToEnd runs every demo policy at 1 and 8
// workers on a geometry with a ragged final word (n = 100): the two worker
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

// Stage B's count over every geometry of its two levels: ⌈n/64⌉ = 1, 1, 2
// and 65 level-1 slots, with padded lanes in the last word at n = 3, 65
// and 4 097. CommonCount must be the number of identities whose frequency
// reaches their threshold, every common identity must be hidden, and
// recall must hold.
func TestStageBCountGeometry(t *testing.T) {
	const m = 9
	for _, n := range []int{3, 64, 65, 4097} {
		rng := rand.New(rand.NewSource(int64(n)))
		truth := randomMatrix(rng, m, n, 0.1)
		eps := make([]float64, n)
		for j := range eps {
			eps[j] = 0.2 + 0.7*rng.Float64()
			if rng.Intn(8) == 0 || j == n-1 {
				for i := 0; i < m; i++ {
					truth.Set(i, j, true)
				}
			}
		}
		cfg := secureCfg(int64(n))
		res, err := Construct(truth, eps, cfg)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		commons := 0
		for j := 0; j < n; j++ {
			freq := 0
			for i := 0; i < m; i++ {
				if truth.Get(i, j) {
					freq++
				}
			}
			if uint64(freq) >= cfg.Threshold(eps[j], m) {
				commons++
				if !res.Hidden[j] {
					t.Errorf("n=%d: common identity %d not hidden", n, j)
				}
			}
		}
		if res.CommonCount != commons {
			t.Errorf("n=%d: CommonCount = %d, want %d", n, res.CommonCount, commons)
		}
		if !res.Published.Covers(truth) {
			t.Errorf("n=%d: recall lost", n)
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

// Rounds of stages B and C follow the depths of the four compiled
// circuits: 1 input round plus the AND depth per execution, plus 1 for
// each opened output (the count and Reveal). At m = 9, 100 and 1 000
// identities run the same CountBelowSlice and RevealSlice circuits, so
// those stages take rounds independent of n; only the count opener's
// level-1 width, ⌈n/64⌉ slots, differs. Every tenth identity is held by
// all providers and the rest by one, so both sizes have the same common
// share, hence the same λ and the same compiled Reveal circuit.
func TestWideRoundsIndependentOfN(t *testing.T) {
	const m = 9
	compiled := func(c *circuit.Circuit, err error) *circuit.Circuit {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	var lambda float64
	for _, n := range []int{100, 1000} {
		freqs := make([]int, n)
		eps := make([]float64, n)
		for j := range freqs {
			freqs[j] = 1
			if j%10 == 0 {
				freqs[j] = m
			}
			eps[j] = 0.5
		}
		cfg := secureCfg(61)
		cfg.Policy = mathx.PolicyBasic
		res, err := Construct(matrixWithFreqs(m, freqs), eps, cfg)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.CommonCount != n/10 {
			t.Fatalf("n=%d: CommonCount = %d, want %d", n, res.CommonCount, n/10)
		}
		if lambda == 0 {
			lambda = res.Lambda
		} else if res.Lambda != lambda {
			t.Fatalf("n=%d: λ = %v, want %v", n, res.Lambda, lambda)
		}
		words := (n + 63) / 64
		w := circuit.BitsNeeded(m+1) + 1
		cbs := compiled(circuit.CountBelowSliceCached(circuit.SliceParams{Parties: 3, ShareBits: w}))
		lanes := compiled(circuit.SliceCountCached(circuit.SliceCountParams{Parties: 3, Slots: words, Width: 1}))
		total := compiled(circuit.SliceCountCached(circuit.SliceCountParams{Parties: 3, Slots: 64, Width: len(lanes.Outputs())}))
		rv := compiled(circuit.RevealSliceCached(circuit.SliceParams{
			Parties: 3, ShareBits: w, CoinBits: DefaultCoinBits,
			MixThreshold: uint64(math.Ldexp(res.Lambda, DefaultCoinBits)),
		}))
		s := res.Secure
		if got, want := s.CountBelowCircuit.AndGates, cbs.Stats().AndGates*words+lanes.Stats().AndGates+total.Stats().AndGates; got != want {
			t.Errorf("n=%d: stage B ran %d word-ANDs, the compiled circuits %d", n, got, want)
		}
		if got, want := s.RevealCircuit.AndGates, rv.Stats().AndGates*words; got != want {
			t.Errorf("n=%d: stage C ran %d word-ANDs, the compiled circuit %d", n, got, want)
		}
		depth := func(c *circuit.Circuit) int { return c.Stats().AndDepth }
		want := (1 + depth(cbs)) + (1 + depth(lanes)) + (1 + depth(total) + 1) + (1 + depth(rv) + 1)
		if s.MPCRounds != want {
			t.Errorf("n=%d: %d MPC rounds, circuit depths give %d", n, s.MPCRounds, want)
		}
	}
}

// BenchmarkWideStages times stages B and C of one secure construction
// at the secure benchmark's shape: 512 providers × 32 768 identities,
// c = 3, 32 coin bits. It reports the MPC wall per construction
// (SecureStats.MPCWall), the protocol rounds (51: 11 for CountBelowSlice,
// 10 + 17 for the two count levels, 13 for RevealSlice) and the bytes the
// coordinators send. A per-gate rate would read worse when the circuits
// shrink, since fixed per-round costs are divided by fewer gates.
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
		CoinBits: 32,
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
	b.ReportMetric(float64(wall.Nanoseconds())/float64(b.N)/1e6, "mpc-ms/op")
	b.ReportMetric(float64(s.MPCRounds), "rounds")
	b.ReportMetric(float64(s.MPC.Bytes), "mpc-bytes")
}

// TestWideSecureFaultInjection drives the pipeline over faulty
// coordinator networks: crash, corruption and
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
			runConstructGuarded(t, truth, eps, faultySecureCfg(11, 2, tc.plan))
		})
	}
}
