package core

import (
	"math"
	"testing"

	"repro/internal/mathx"
)

// mixingModes runs a mixing test under both construction paths.
var mixingModes = []struct {
	name string
	set  func(*Config)
}{
	{"trusted", func(c *Config) { c.Mode = ModeTrusted }},
	{"secure", func(c *Config) { c.Mode, c.C = ModeSecure, 3 }},
}

// mixFixture is an m × n matrix whose first `commons` owners are held by
// every provider and the rest by two, all at ε = 0.5: under the basic
// policy the first ones are common and no other is.
func mixFixture(m, n, commons int) ([]int, []float64) {
	freqs := make([]int, n)
	eps := make([]float64, n)
	for j := range freqs {
		freqs[j], eps[j] = 2, 0.5
		if j < commons {
			freqs[j] = m
		}
	}
	return freqs, eps
}

// λ ≥ 1 must hide every identity in both modes. Secure mode used to clamp
// the cutoff to 2^CoinBits − 1, so an owner whose joint coin was the top
// value stayed unhidden and its frequency was opened; at CoinBits = 2 that
// was about a quarter of them.
func TestLambdaOneHidesEveryone(t *testing.T) {
	const m, n = 20, 200
	freqs, eps := mixFixture(m, n, 1)
	truth := matrixWithFreqs(m, freqs)
	for _, mode := range mixingModes {
		cfg := Config{Policy: mathx.PolicyBasic, CoinBits: 2, XiOverride: 0.999, Seed: 5}
		mode.set(&cfg)
		res, err := Construct(truth, eps, cfg)
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		if res.Lambda != 1 || res.CommonCount != 1 {
			t.Fatalf("%s: λ=%v commons=%d, want 1 and 1", mode.name, res.Lambda, res.CommonCount)
		}
		unhidden := 0
		for j, h := range res.Hidden {
			if !h || res.Betas[j] != 1 {
				unhidden++
			}
		}
		if unhidden != 0 {
			t.Errorf("%s: %d of %d owners unhidden at λ = 1, want 0", mode.name, unhidden, n)
		}
	}
}

// Sticky mixing: one owner crossing its threshold raises λ and moves no
// coin, so every owner hidden before stays hidden. With coins drawn from a
// stream only for non-commons, the new common skipped a draw and shifted
// every later coin of its shard.
func TestMixingStickyAcrossThresholdCrossing(t *testing.T) {
	const m, n, crossing = 40, 200, 37
	freqs, eps := mixFixture(m, n, 2)
	before := matrixWithFreqs(m, freqs)
	freqs[crossing] = m
	after := matrixWithFreqs(m, freqs)
	for _, mode := range mixingModes {
		for seed := int64(1); seed <= 4; seed++ {
			cfg := Config{Policy: mathx.PolicyBasic, XiOverride: 0.8, Seed: seed}
			mode.set(&cfg)
			a, err := Construct(before, eps, cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Construct(after, eps, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a.CommonCount != 2 || b.CommonCount != 3 || !(b.Lambda > a.Lambda) || a.Lambda <= 0 {
				t.Fatalf("%s seed %d fixture: commons %d→%d, λ %v→%v", mode.name, seed, a.CommonCount, b.CommonCount, a.Lambda, b.Lambda)
			}
			mixed := 0
			for j := range a.Hidden {
				if a.Hidden[j] && !b.Hidden[j] {
					t.Errorf("%s seed %d: owner %d was hidden at λ=%v and is not at λ=%v", mode.name, seed, j, a.Lambda, b.Lambda)
				}
				if a.Hidden[j] && j >= 2 {
					mixed++
				}
			}
			if mixed == 0 {
				t.Fatalf("%s seed %d fixture: no owner mixed in (nothing to test)", mode.name, seed)
			}
		}
	}
}

// TestMixingRate checks Equation 7's λ in the way TestPublicationStatistics
// checks Equation 2: over many seeds, the fraction of non-common owners
// mixed in must match the cutoff both modes apply, ⌊λ · 2^CoinBits⌋ /
// 2^CoinBits (DefaultCoinBits when CoinBits is 0), within a two-sided
// Hoeffding bound at δ = 1e-9. A biased coin, coins shared between owners
// or coordinators, or a wrong cutoff fails it.
func TestMixingRate(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical suite needs many trials")
	}
	const delta = 1e-9
	for _, tc := range []struct {
		mode             int
		m, n, commons    int
		xi               float64
		coinBits, trials int
	}{
		{mode: 0, m: 50, n: 130, commons: 10, xi: 0.8, trials: 300},
		{mode: 1, m: 12, n: 64, commons: 4, xi: 0.75, coinBits: 6, trials: 300},
	} {
		mode := mixingModes[tc.mode]
		t.Run(mode.name, func(t *testing.T) {
			freqs, eps := mixFixture(tc.m, tc.n, tc.commons)
			truth := matrixWithFreqs(tc.m, freqs)
			mixed, draws := 0, 0
			var lambda float64
			for trial := 0; trial < tc.trials; trial++ {
				cfg := Config{Policy: mathx.PolicyBasic, XiOverride: tc.xi, CoinBits: tc.coinBits, Seed: 5000 + int64(trial)}
				mode.set(&cfg)
				res, err := Construct(truth, eps, cfg)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				lambda = res.Lambda
				for j := tc.commons; j < tc.n; j++ {
					draws++
					if res.Hidden[j] {
						mixed++
					}
				}
			}
			bits := tc.coinBits
			if bits == 0 {
				bits = DefaultCoinBits
			}
			scale := math.Ldexp(1, bits)
			want := math.Floor(lambda*scale) / scale
			if want <= 0.1 || want >= 0.9 {
				t.Fatalf("fixture: cutoff %v leaves the test no power", want)
			}
			got := float64(mixed) / float64(draws)
			bound := math.Sqrt(math.Log(2/delta) / (2 * float64(draws)))
			if math.Abs(got-want) > bound {
				t.Errorf("mixed fraction %.4f over %d draws, want %.4f (λ=%v) within Hoeffding bound %.4f",
					got, draws, want, lambda, bound)
			}
			t.Logf("mixed %.4f, want %.4f ± %.4f", got, want, bound)
		})
	}
}
