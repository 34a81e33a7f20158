package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/mathx"
)

func randomMatrix(rng *rand.Rand, m, n int, density float64) *bitmat.Matrix {
	mat := bitmat.MustNew(m, n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			if rng.Float64() < density {
				mat.Set(i, j, true)
			}
		}
	}
	return mat
}

// rawBeta evaluates the configured policy without clamping, through the
// one-call mathx formulas: the oracle the threshold tests hold the search to.
func (c Config) rawBeta(sigma, epsilon float64, m int) float64 {
	switch c.Policy {
	case mathx.PolicyBasic:
		return mathx.BetaBasic(sigma, epsilon)
	case mathx.PolicyIncremented:
		return mathx.BetaIncremented(sigma, epsilon, c.Delta)
	default:
		return mathx.BetaChernoff(sigma, epsilon, m, c.Gamma)
	}
}

// matrixWithFreqs builds an m×n matrix where column j has exactly freqs[j]
// ones (in the first freqs[j] rows).
func matrixWithFreqs(m int, freqs []int) *bitmat.Matrix {
	mat := bitmat.MustNew(m, len(freqs))
	for j, f := range freqs {
		for i := 0; i < f; i++ {
			mat.Set(i, j, true)
		}
	}
	return mat
}

func TestModeString(t *testing.T) {
	if ModeTrusted.String() != "trusted" || ModeSecure.String() != "secure" {
		t.Error("mode names wrong")
	}
	if Mode(0).String() != "mode(0)" {
		t.Error("unknown mode name wrong")
	}
}

func TestConfigValidation(t *testing.T) {
	truth := matrixWithFreqs(10, []int{3})
	eps := []float64{0.5}
	bad := []Config{
		{Policy: 0, Mode: ModeTrusted},
		{Policy: mathx.PolicyBasic, Mode: 0},
		{Policy: mathx.PolicyBasic, Mode: ModeSecure, C: 1},
		{Policy: mathx.PolicyBasic, Mode: ModeTrusted, CoinBits: 63},
		{Policy: mathx.PolicyBasic, Mode: ModeTrusted, CoinBits: -1},
	}
	for i, cfg := range bad {
		if _, err := Construct(truth, eps, cfg); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
	good := Config{Policy: mathx.PolicyBasic, Mode: ModeTrusted}
	if _, err := Construct(truth, eps, good); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	if _, err := Construct(truth, []float64{0.5, 0.5}, good); err == nil {
		t.Error("ε length mismatch accepted")
	}
	if _, err := Construct(truth, []float64{1.5}, good); err == nil {
		t.Error("ε out of range accepted")
	}
	if _, err := Construct(bitmat.MustNew(0, 0), nil, good); err == nil {
		t.Error("empty matrix accepted")
	}
}

func TestThresholdMatchesBruteForce(t *testing.T) {
	m := 200
	for _, cfg := range []Config{
		{Policy: mathx.PolicyBasic},
		{Policy: mathx.PolicyIncremented, Delta: 0.02},
		{Policy: mathx.PolicyChernoff, Gamma: 0.9},
	} {
		for _, eps := range []float64{0, 0.1, 0.5, 0.8, 0.99, 1} {
			want := uint64(m + 1)
			for f := 1; f <= m; f++ {
				if mathx.IsCommon(cfg.rawBeta(float64(f)/float64(m), eps, m)) {
					want = uint64(f)
					break
				}
			}
			if got := cfg.Threshold(eps, m); got != want {
				t.Errorf("policy %v ε=%v: threshold %d, want %d", cfg.Policy, eps, got, want)
			}
		}
	}
}

func TestThresholdEdges(t *testing.T) {
	cfg := Config{Policy: mathx.PolicyBasic}
	// ε=0: never common.
	if got := cfg.Threshold(0, 100); got != 101 {
		t.Errorf("ε=0 threshold = %d, want 101", got)
	}
	// ε=1: always common from frequency 1.
	if got := cfg.Threshold(1, 100); got != 1 {
		t.Errorf("ε=1 threshold = %d, want 1", got)
	}
	if got := cfg.Threshold(0.5, 0); got != 1 {
		t.Errorf("m=0 threshold = %d, want 1", got)
	}
}

func TestTrustedRecallIsPerfect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	truth := randomMatrix(rng, 200, 30, 0.1)
	eps := make([]float64, 30)
	for j := range eps {
		eps[j] = rng.Float64()
	}
	res, err := Construct(truth, eps, Config{Policy: mathx.PolicyChernoff, Gamma: 0.9, Mode: ModeTrusted, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Published.Covers(truth) {
		t.Fatal("published matrix lost true positives (recall < 100%)")
	}
}

func TestTrustedCommonsGetBetaOne(t *testing.T) {
	// One identity on every provider (σ=1) must be hidden with β=1.
	truth := matrixWithFreqs(50, []int{50, 5})
	eps := []float64{0.5, 0.5}
	res, err := Construct(truth, eps, Config{Policy: mathx.PolicyBasic, Mode: ModeTrusted, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hidden[0] || res.Betas[0] != 1 {
		t.Fatalf("common identity not hidden: hidden=%v β=%v", res.Hidden[0], res.Betas[0])
	}
	if res.CommonCount != 1 {
		t.Fatalf("CommonCount = %d, want 1", res.CommonCount)
	}
	// The common identity's published column must be all ones.
	if got := res.Published.ColCount(0); got != 50 {
		t.Fatalf("common column has %d ones, want 50", got)
	}
}

func TestTrustedChernoffMeetsEpsilon(t *testing.T) {
	// Statistical check of the paper's core guarantee: with the Chernoff
	// policy at γ=0.9, the achieved fp rate meets ε in ≥ ~90% of trials.
	m := 2000
	epsVal := 0.5
	freq := 20
	success, trials := 0, 60
	for trial := 0; trial < trials; trial++ {
		truth := matrixWithFreqs(m, []int{freq})
		res, err := Construct(truth, []float64{epsVal}, Config{
			Policy: mathx.PolicyChernoff, Gamma: 0.9, Mode: ModeTrusted, Seed: int64(trial),
		})
		if err != nil {
			t.Fatal(err)
		}
		fp, err := bitmat.ColFalsePositiveRate(truth, res.Published, 0)
		if err != nil {
			t.Fatal(err)
		}
		if fp >= epsVal {
			success++
		}
	}
	rate := float64(success) / float64(trials)
	if rate < 0.8 {
		t.Fatalf("Chernoff policy success rate %v over %d trials, want >= 0.8", rate, trials)
	}
}

func TestTrustedBasicPolicyAroundHalf(t *testing.T) {
	m := 2000
	epsVal := 0.5
	freq := 20
	success, trials := 0, 80
	for trial := 0; trial < trials; trial++ {
		truth := matrixWithFreqs(m, []int{freq})
		res, err := Construct(truth, []float64{epsVal}, Config{
			Policy: mathx.PolicyBasic, Mode: ModeTrusted, Seed: int64(1000 + trial),
		})
		if err != nil {
			t.Fatal(err)
		}
		fp, err := bitmat.ColFalsePositiveRate(truth, res.Published, 0)
		if err != nil {
			t.Fatal(err)
		}
		if fp >= epsVal {
			success++
		}
	}
	rate := float64(success) / float64(trials)
	if rate < 0.25 || rate > 0.75 {
		t.Fatalf("basic policy success rate %v, want ≈ 0.5", rate)
	}
}

func TestMixingHidesNonCommons(t *testing.T) {
	// With a common identity present and ξ=0.8, λ must be positive and some
	// non-common identities must be exaggerated over enough trials.
	n := 40
	freqs := make([]int, n)
	freqs[0] = 100 // the common one
	for j := 1; j < n; j++ {
		freqs[j] = 2
	}
	truth := matrixWithFreqs(100, freqs)
	eps := make([]float64, n)
	for j := range eps {
		eps[j] = 0.8
	}
	res, err := Construct(truth, eps, Config{Policy: mathx.PolicyBasic, Mode: ModeTrusted, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lambda <= 0 {
		t.Fatalf("λ = %v, want > 0 with a true common present", res.Lambda)
	}
	if res.Xi != 0.8 {
		t.Fatalf("ξ = %v, want 0.8", res.Xi)
	}
	hiddenNonCommon := 0
	for j := 1; j < n; j++ {
		if res.Hidden[j] {
			hiddenNonCommon++
			if res.Betas[j] != 1 {
				t.Fatalf("mixed identity %d has β=%v, want 1", j, res.Betas[j])
			}
		}
	}
	// λ = 0.8/0.2 · 1/39 ≈ 0.1026; over 39 identities expect ≈ 4 mixed.
	if hiddenNonCommon == 0 {
		t.Fatal("no non-common identity was mixed in")
	}
}

func TestNoCommonsNoMixing(t *testing.T) {
	truth := matrixWithFreqs(100, []int{2, 3, 4})
	eps := []float64{0.5, 0.5, 0.5}
	res, err := Construct(truth, eps, Config{Policy: mathx.PolicyBasic, Mode: ModeTrusted, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.CommonCount != 0 || res.Lambda != 0 {
		t.Fatalf("commons=%d λ=%v, want 0/0", res.CommonCount, res.Lambda)
	}
	for j, h := range res.Hidden {
		if h {
			t.Fatalf("identity %d hidden with no commons and λ=0", j)
		}
	}
}

func TestXiOverride(t *testing.T) {
	truth := matrixWithFreqs(100, []int{100, 2, 2, 2})
	eps := []float64{0.2, 0.2, 0.2, 0.2}
	res, err := Construct(truth, eps, Config{
		Policy: mathx.PolicyBasic, Mode: ModeTrusted, Seed: 9, XiOverride: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Xi != 0.9 {
		t.Fatalf("ξ = %v, want override 0.9", res.Xi)
	}
	want := 0.9 / 0.1 * 1.0 / 3.0
	if math.Abs(res.Lambda-math.Min(want, 1)) > 1e-12 {
		t.Fatalf("λ = %v, want %v", res.Lambda, math.Min(want, 1))
	}
}

func TestPublishZeroBetaIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	truth := randomMatrix(rng, 50, 10, 0.2)
	pub := publishKernel(truth, make([]float64, 10), 10)
	if !pub.Equal(truth) {
		t.Fatal("β=0 publication altered the matrix")
	}
}

func TestPublishBetaOneFillsColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	truth := randomMatrix(rng, 50, 3, 0.2)
	betas := []float64{1, 0, 1}
	pub := publishKernel(truth, betas, 11)
	if pub.ColCount(0) != 50 || pub.ColCount(2) != 50 {
		t.Fatal("β=1 column not fully published")
	}
	if pub.ColCount(1) != truth.ColCount(1) {
		t.Fatal("β=0 column gained bits")
	}
}

func TestPublishFlipRate(t *testing.T) {
	m := 20000
	truth := bitmat.MustNew(m, 1)
	pub := publishKernel(truth, []float64{0.3}, 12)
	rate := float64(pub.ColCount(0)) / float64(m)
	if math.Abs(rate-0.3) > 0.02 {
		t.Fatalf("flip rate %v, want ≈ 0.3", rate)
	}
}

func TestDeterministicBySeed(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	truth := randomMatrix(rng, 100, 20, 0.1)
	eps := make([]float64, 20)
	for j := range eps {
		eps[j] = 0.6
	}
	cfg := Config{Policy: mathx.PolicyChernoff, Gamma: 0.9, Mode: ModeTrusted, Seed: 99}
	a, err := Construct(truth, eps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Construct(truth, eps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Published.Equal(b.Published) {
		t.Fatal("same seed produced different indexes")
	}
	cfg.Seed = 100
	c, err := Construct(truth, eps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Published.Equal(c.Published) {
		t.Fatal("different seeds produced identical indexes (suspicious)")
	}
}
