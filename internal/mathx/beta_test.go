package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPolicyString(t *testing.T) {
	tests := []struct {
		p    Policy
		want string
	}{
		{PolicyBasic, "basic"},
		{PolicyIncremented, "inc-exp"},
		{PolicyChernoff, "chernoff"},
		{Policy(0), "policy(0)"},
	}
	for _, tt := range tests {
		if got := tt.p.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", int(tt.p), got, tt.want)
		}
	}
	if Policy(0).Valid() || Policy(99).Valid() {
		t.Error("invalid policies reported Valid")
	}
	if !PolicyChernoff.Valid() {
		t.Error("PolicyChernoff not Valid")
	}
}

func TestBetaBasicEquation3(t *testing.T) {
	// Hand-checked instances of β_b = [(σ⁻¹−1)(ε⁻¹−1)]⁻¹.
	tests := []struct {
		sigma, eps, want float64
	}{
		{0.5, 0.5, 1.0},         // (1)(1) => 1
		{0.1, 0.5, 1.0 / 9.0},   // (9)(1)
		{0.1, 0.8, 4.0 / 9.0},   // (9)(0.25)
		{0.01, 0.5, 1.0 / 99.0}, // (99)(1)
		{0.2, 0.2, 1.0 / 16.0},  // (4)(4)
		{0.25, 0.75, 1.0},       // (3)(1/3)
		{0.5, 0.9, 9.0},         // (1)(1/9) => 9 (raw, will clamp to 1)
	}
	for _, tt := range tests {
		got := BetaBasic(tt.sigma, tt.eps)
		if math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("BetaBasic(%v,%v) = %v, want %v", tt.sigma, tt.eps, got, tt.want)
		}
	}
}

func TestBetaBasicEdgeCases(t *testing.T) {
	if got := BetaBasic(0, 0.5); got != 0 {
		t.Errorf("σ=0: got %v, want 0", got)
	}
	if got := BetaBasic(0.5, 0); got != 0 {
		t.Errorf("ε=0: got %v, want 0", got)
	}
	if got := BetaBasic(1, 0.5); !math.IsInf(got, 1) {
		t.Errorf("σ=1: got %v, want +Inf", got)
	}
	if got := BetaBasic(0.5, 1); !math.IsInf(got, 1) {
		t.Errorf("ε=1: got %v, want +Inf", got)
	}
}

func TestBetaIncremented(t *testing.T) {
	if got, want := BetaIncremented(0.5, 0.5, 0.02), 1.02; math.Abs(got-want) > 1e-12 {
		t.Errorf("got %v, want %v", got, want)
	}
	if got := BetaIncremented(0, 0.5, 0.02); got != 0 {
		t.Errorf("σ=0 with Δ: got %v, want 0 (no providers to protect)", got)
	}
	if got := BetaIncremented(1, 0.5, 0.02); !math.IsInf(got, 1) {
		t.Errorf("σ=1: got %v, want +Inf", got)
	}
}

func TestBetaChernoffDominatesBasic(t *testing.T) {
	// Theorem 3.1 requires β_c > β_b whenever β_b is finite and positive.
	for _, sigma := range []float64{0.001, 0.01, 0.1, 0.3} {
		for _, eps := range []float64{0.1, 0.5, 0.9} {
			for _, m := range []int{100, 1000, 10000} {
				b := BetaBasic(sigma, eps)
				c := BetaChernoff(sigma, eps, m, 0.9)
				if c <= b {
					t.Errorf("β_c=%v <= β_b=%v at σ=%v ε=%v m=%d", c, b, sigma, eps, m)
				}
			}
		}
	}
}

func TestBetaChernoffShrinksWithM(t *testing.T) {
	// More providers → tighter concentration → smaller safety margin.
	prev := math.Inf(1)
	for _, m := range []int{64, 256, 1024, 4096, 16384} {
		c := BetaChernoff(0.1, 0.5, m, 0.9)
		if c >= prev {
			t.Fatalf("β_c not decreasing in m: m=%d gave %v, previous %v", m, c, prev)
		}
		prev = c
	}
}

func TestBetaChernoffGrowsWithGamma(t *testing.T) {
	prev := 0.0
	for _, gamma := range []float64{0.6, 0.8, 0.9, 0.99, 0.999} {
		c := BetaChernoff(0.1, 0.5, 1000, gamma)
		if c <= prev {
			t.Fatalf("β_c not increasing in γ: γ=%v gave %v, previous %v", gamma, c, prev)
		}
		prev = c
	}
}

func TestChernoffG(t *testing.T) {
	// G = ln(1/(1-γ)) / ((1-σ)m)
	got := ChernoffG(0.5, 100, 0.9)
	want := math.Log(10) / 50
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("ChernoffG = %v, want %v", got, want)
	}
	if !math.IsInf(ChernoffG(1, 100, 0.9), 1) {
		t.Error("ChernoffG at σ=1 should be +Inf")
	}
}

func TestBetaValidation(t *testing.T) {
	base := BetaParams{Sigma: 0.1, Epsilon: 0.5, M: 100, Delta: 0.02, Gamma: 0.9}
	tests := []struct {
		name   string
		policy Policy
		mutate func(*BetaParams)
		err    error
	}{
		{"sigma low", PolicyBasic, func(p *BetaParams) { p.Sigma = -0.1 }, ErrBadSigma},
		{"sigma high", PolicyBasic, func(p *BetaParams) { p.Sigma = 1.1 }, ErrBadSigma},
		{"sigma nan", PolicyBasic, func(p *BetaParams) { p.Sigma = math.NaN() }, ErrBadSigma},
		{"eps low", PolicyBasic, func(p *BetaParams) { p.Epsilon = -1 }, ErrBadEpsilon},
		{"eps high", PolicyBasic, func(p *BetaParams) { p.Epsilon = 2 }, ErrBadEpsilon},
		{"m zero", PolicyBasic, func(p *BetaParams) { p.M = 0 }, ErrBadProviders},
		{"delta neg", PolicyIncremented, func(p *BetaParams) { p.Delta = -0.1 }, ErrBadDelta},
		{"gamma half", PolicyChernoff, func(p *BetaParams) { p.Gamma = 0.5 }, ErrBadGamma},
		{"gamma one", PolicyChernoff, func(p *BetaParams) { p.Gamma = 1 }, ErrBadGamma},
		{"unknown policy", Policy(42), func(p *BetaParams) {}, ErrUnknownPolicy},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := base
			tt.mutate(&p)
			if _, err := Beta(tt.policy, p); err == nil {
				t.Fatalf("Beta accepted invalid params %+v", p)
			}
		})
	}
	if _, err := Beta(PolicyChernoff, base); err != nil {
		t.Fatalf("Beta rejected valid params: %v", err)
	}
}

func TestBetaClamped(t *testing.T) {
	// σ=0.5 ε=0.9 gives raw β_b=9 — must clamp to 1 (common identity).
	got, err := Beta(PolicyBasic, BetaParams{Sigma: 0.5, Epsilon: 0.9, M: 100})
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("clamped β = %v, want 1", got)
	}
	if !IsCommon(BetaBasic(0.5, 0.9)) {
		t.Error("IsCommon(9) = false")
	}
	if IsCommon(0.99) {
		t.Error("IsCommon(0.99) = true")
	}
	if !IsCommon(math.Inf(1)) {
		t.Error("IsCommon(+Inf) = false")
	}
}

func TestBetaQuickProperties(t *testing.T) {
	// For any valid (σ, ε) in the open interval, all policies return a
	// probability in [0,1] and Chernoff >= IncExp(0) >= Basic after clamping.
	prop := func(a, b uint16) bool {
		sigma := 0.001 + 0.998*float64(a)/65535
		eps := 0.001 + 0.998*float64(b)/65535
		p := BetaParams{Sigma: sigma, Epsilon: eps, M: 1000, Delta: 0.0, Gamma: 0.9}
		bb, err1 := Beta(PolicyBasic, p)
		bd, err2 := Beta(PolicyIncremented, p)
		bc, err3 := Beta(PolicyChernoff, p)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		inRange := bb >= 0 && bb <= 1 && bd >= 0 && bd <= 1 && bc >= 0 && bc <= 1
		ordered := bc >= bb && bd >= bb
		return inRange && ordered
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLambdaEquation7(t *testing.T) {
	tests := []struct {
		name      string
		xi        float64
		common, n int
		want      float64
	}{
		{"no commons", 0.5, 0, 100, 0},
		{"xi zero", 0, 10, 100, 0},
		{"half xi", 0.5, 10, 100, 10.0 / 90.0},
		{"xi 0.8", 0.8, 10, 110, 0.8 / 0.2 * 10.0 / 100.0},
		{"all common", 0.5, 100, 100, 1},
		{"xi one", 1, 10, 100, 1},
		{"clamp", 0.99, 50, 60, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Lambda(tt.xi, tt.common, tt.n)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-tt.want) > 1e-12 {
				t.Fatalf("Lambda(%v,%d,%d) = %v, want %v", tt.xi, tt.common, tt.n, got, tt.want)
			}
		})
	}
}

func TestLambdaErrors(t *testing.T) {
	if _, err := Lambda(-0.1, 1, 10); err == nil {
		t.Error("negative ξ accepted")
	}
	if _, err := Lambda(0.5, -1, 10); err == nil {
		t.Error("negative common accepted")
	}
	if _, err := Lambda(0.5, 11, 10); err == nil {
		t.Error("common > n accepted")
	}
	if _, err := Lambda(0.5, 0, 0); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestLambdaSatisfiesInequality(t *testing.T) {
	// The returned λ must satisfy ξ <= λ(n-common) / (common + λ(n-common))
	// whenever it is not clamped.
	prop := func(a uint8, b uint16) bool {
		xi := float64(a%99+1) / 100 // 0.01..0.99
		n := int(b%1000) + 10
		common := int(b) % (n / 2)
		lambda, err := Lambda(xi, common, n)
		if err != nil {
			return false
		}
		if common == 0 {
			return lambda == 0
		}
		if lambda == 1 {
			return true // clamped; the best achievable
		}
		mixed := lambda * float64(n-common)
		achieved := mixed / (float64(common) + mixed)
		return achieved+1e-9 >= xi
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSuccessProbability(t *testing.T) {
	// ε=0 always succeeds.
	if got := SuccessProbability(100, 10, 0.1, 0); got != 1 {
		t.Errorf("ε=0: got %v, want 1", got)
	}
	// ε=1 succeeds only with zero positives.
	if got := SuccessProbability(100, 10, 0.5, 1); got != 0 {
		t.Errorf("ε=1,pos>0: got %v, want 0", got)
	}
	if got := SuccessProbability(100, 0, 0.5, 1); got != 1 {
		t.Errorf("ε=1,pos=0: got %v, want 1", got)
	}
	// β=1 publishes every negative: fp = (m-pos)/m; succeeds iff that >= ε.
	if got := SuccessProbability(100, 10, 1, 0.5); got != 1 {
		t.Errorf("β=1: got %v, want 1", got)
	}
	// β=0 cannot create false positives.
	if got := SuccessProbability(100, 10, 0, 0.5); got != 0 {
		t.Errorf("β=0: got %v, want 0", got)
	}
	// Out-of-range positives.
	if got := SuccessProbability(10, 20, 0.5, 0.5); got != 0 {
		t.Errorf("pos>m: got %v, want 0", got)
	}
}

// binomialTailRef sums every PMF term of the tail independently in log
// space: slow, but no term depends on a neighbour that may have underflowed.
func binomialTailRef(n int, p float64, k int) float64 {
	sum := 0.0
	for x := k; x <= n; x++ {
		sum += math.Exp(logChoose(n, x) + float64(x)*math.Log(p) + float64(n-x)*math.Log(1-p))
	}
	return sum
}

// The tail must hold when k sits far below the mean, where PMF(k)
// underflows to 0 but the tail is ≈ 1, as well as near and far above it.
func TestBinomialTailAcrossTheMean(t *testing.T) {
	cases := []struct {
		n int
		p float64
		k int
	}{
		{4000, 0.5, 10},   // k ≪ mean: PMF(k) underflows, tail ≈ 1
		{4000, 0.5, 1500}, // k ≪ mean
		{4000, 0.5, 1990}, // k ≈ mean
		{4000, 0.5, 2000},
		{4000, 0.5, 2010},
		{4000, 0.5, 2500}, // k ≫ mean: tail ≈ 1e-55
		{4000, 0.01, 1},
		{4000, 0.01, 40},
		{4000, 0.01, 100},
		{30, 0.3, 9},
		{30, 0.3, 10},
	}
	for _, tc := range cases {
		got, want := binomialTail(tc.n, tc.p, tc.k), binomialTailRef(tc.n, tc.p, tc.k)
		if math.Abs(got-want) > 1e-9*want {
			t.Errorf("binomialTail(%d, %v, %d) = %v, want %v", tc.n, tc.p, tc.k, got, want)
		}
	}
}

func TestSuccessProbabilityMatchesMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m, pos, beta, eps := 200, 20, 0.15, 0.5
	want := SuccessProbability(m, pos, beta, eps)
	trials := 20000
	hits := 0
	for i := 0; i < trials; i++ {
		x := 0
		for j := 0; j < m-pos; j++ {
			if rng.Float64() < beta {
				x++
			}
		}
		fp := float64(x) / float64(x+pos)
		if fp >= eps {
			hits++
		}
	}
	got := float64(hits) / float64(trials)
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("analytic %v vs monte-carlo %v differ by > 0.02", want, got)
	}
}

func TestChernoffPolicyMeetsGamma(t *testing.T) {
	// Core claim of Theorem 3.1: β_c achieves success probability >= γ.
	for _, tc := range []struct {
		m     int
		sigma float64
		eps   float64
		gamma float64
	}{
		{1000, 0.01, 0.5, 0.9},
		{1000, 0.05, 0.8, 0.9},
		{10000, 0.01, 0.5, 0.95},
		{500, 0.1, 0.3, 0.9},
	} {
		pos := int(tc.sigma * float64(tc.m))
		beta := BetaChernoff(tc.sigma, tc.eps, tc.m, tc.gamma)
		if beta >= 1 {
			continue // common identity; handled by mixing, not by tail bound
		}
		p := SuccessProbability(tc.m, pos, beta, tc.eps)
		if p < tc.gamma {
			t.Errorf("m=%d σ=%v ε=%v γ=%v: success prob %v < γ", tc.m, tc.sigma, tc.eps, tc.gamma, p)
		}
	}
}

func TestBasicPolicyNearHalf(t *testing.T) {
	// The basic policy should land close to 50% success around the median.
	m, sigma, eps := 10000, 0.01, 0.5
	pos := int(sigma * float64(m))
	beta := BetaBasic(sigma, eps)
	p := SuccessProbability(m, pos, beta, eps)
	if p < 0.3 || p > 0.7 {
		t.Fatalf("basic policy success prob %v, want ≈0.5", p)
	}
}
