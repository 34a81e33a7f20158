package attack

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/bitmat"
	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/workload"
)

// Inversion is exact: σ → β (Equation 3) → σ must round-trip.
func TestInvertBasicBetaRoundTrip(t *testing.T) {
	prop := func(a, b uint16) bool {
		sigma := 0.001 + 0.5*float64(a)/65535 // keep β < 1
		eps := 0.1 + 0.6*float64(b)/65535
		beta := mathx.BetaBasic(sigma, eps)
		if beta <= 0 || beta >= 1 {
			return true // out of the invertible range by construction
		}
		got, ok := InvertBasicBeta(beta, eps)
		return ok && math.Abs(got-sigma) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestInvertBasicBetaRejects(t *testing.T) {
	cases := []struct{ beta, eps float64 }{
		{0, 0.5}, {1, 0.5}, {1.5, 0.5}, {-0.1, 0.5}, {0.5, 0}, {0.5, 1},
	}
	for _, tc := range cases {
		if _, ok := InvertBasicBeta(tc.beta, tc.eps); ok {
			t.Errorf("InvertBasicBeta(%v, %v) accepted", tc.beta, tc.eps)
		}
	}
}

func TestEstimateFrequencyFromColumn(t *testing.T) {
	// Exact construction: 10 true + noise at known β over a big column.
	m := bitmat.MustNew(10000, 1)
	for i := 0; i < 10; i++ {
		m.Set(i, 0, true)
	}
	pub := m.Clone()
	// Deterministically flip exactly β·(m−f) negatives.
	beta := 0.25
	flips := int(beta * 9990)
	for i := 10; i < 10+flips; i++ {
		pub.Set(i, 0, true)
	}
	est, ok := EstimateFrequencyFromColumn(pub, 0, beta)
	if !ok {
		t.Fatal("estimator refused a revealed column")
	}
	if math.Abs(est-10) > 2 {
		t.Fatalf("estimate %v, want ≈ 10", est)
	}
	if _, ok := EstimateFrequencyFromColumn(pub, 0, 1); ok {
		t.Fatal("β = 1 column should be blind")
	}
	if _, ok := EstimateFrequencyFromColumn(pub, 0, -0.1); ok {
		t.Fatal("negative β accepted")
	}
}

// The system-level boundary: revealed identities' frequencies are
// estimable from public data, hidden identities are blind — the asymmetry
// the mixing defence creates.
func TestEstimateAllOnRealIndex(t *testing.T) {
	m, n := 2000, 40
	d, err := workload.GenerateZipf(workload.ZipfConfig{
		Providers: m, Owners: n, Exponent: 1.2, MaxFrequency: m / 4,
		EpsLow: 0.3, EpsHigh: 0.7, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Construct(d.Matrix, d.Eps, core.Config{
		Policy: mathx.PolicyChernoff, Gamma: 0.9, Mode: core.ModeTrusted, Seed: 2, XiOverride: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := EstimateAll(d.Matrix, res.Published, res.Betas)
	if err != nil {
		t.Fatal(err)
	}
	hidden := 0
	for _, h := range res.Hidden {
		if h {
			hidden++
		}
	}
	if rep.BlindCount != hidden {
		t.Fatalf("blind %d != hidden %d", rep.BlindCount, hidden)
	}
	if rep.RevealedCount != n-hidden {
		t.Fatalf("revealed %d != %d", rep.RevealedCount, n-hidden)
	}
	if rep.RevealedCount > 0 {
		// Binomial noise: error standard deviation ≈ sqrt(mβ(1−β))/(1−β);
		// the mean absolute error should stay well under 10% of m.
		if rep.RevealedMeanError > 0.1*float64(m) {
			t.Fatalf("mean estimation error %v too large (estimator broken)", rep.RevealedMeanError)
		}
		// And the attack genuinely works: error far below a blind guess.
		if rep.RevealedMeanError > 200 {
			t.Fatalf("mean error %v — estimator barely better than guessing", rep.RevealedMeanError)
		}
	}
}

func TestEstimateAllValidation(t *testing.T) {
	a := bitmat.MustNew(3, 2)
	b := bitmat.MustNew(3, 3)
	if _, err := EstimateAll(a, b, []float64{0.5, 0.5}); err == nil {
		t.Error("shape mismatch accepted")
	}
	if _, err := EstimateAll(a, a.Clone(), []float64{0.5}); err == nil {
		t.Error("β length mismatch accepted")
	}
}
