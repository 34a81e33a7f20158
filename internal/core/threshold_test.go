package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mathx"
)

// searchThreshold is the threshold search evaluated straight through the
// one-call mathx formulas (rawBeta) at every probe: the oracle the table
// path must equal, bit for bit, on every input.
func searchThreshold(cfg Config, epsilon float64, m int) uint64 {
	if m <= 0 {
		return 1
	}
	if !mathx.IsCommon(cfg.rawBeta(1, epsilon, m)) {
		return uint64(m + 1)
	}
	lo, hi := 1, m
	for lo < hi {
		mid := (lo + hi) / 2
		if mathx.IsCommon(cfg.rawBeta(float64(mid)/float64(m), epsilon, m)) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return uint64(lo)
}

// checkThresholds holds the table path to Config.Threshold and to the
// rawBeta search for every ε of eps.
func checkThresholds(t *testing.T, cfg Config, m int, eps []float64) {
	t.Helper()
	table := cfg.thresholdSearch(m, true)
	for _, e := range eps {
		got, want := table.threshold(e), cfg.Threshold(e, m)
		if got != want {
			t.Fatalf("%v Δ=%v γ=%v m=%d ε=%v: table %d, Config.Threshold %d",
				cfg.Policy, cfg.Delta, cfg.Gamma, m, e, got, want)
		}
		if ref := searchThreshold(cfg, e, m); want != ref {
			t.Fatalf("%v Δ=%v γ=%v m=%d ε=%v: Config.Threshold %d, rawBeta search %d",
				cfg.Policy, cfg.Delta, cfg.Gamma, m, e, want, ref)
		}
	}
}

// thresholdEps is an ε vector with the values a threshold search treats
// specially — 0, 1, the subnormal minimum, the largest ε below 1, exact
// tenths — plus duplicates and random values.
func thresholdEps(rng *rand.Rand) []float64 {
	eps := []float64{0, 1, 5e-324, 1 - math.Ldexp(1, -53), 0.5, 0.5, 1e-300}
	for k := 1; k < 10; k++ {
		eps = append(eps, float64(k)/10, float64(k)/10)
	}
	for k := 0; k < 200; k++ {
		eps = append(eps, rng.Float64())
	}
	return eps
}

func TestThresholdTableMatchesThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	eps := thresholdEps(rng)
	for _, cfg := range []Config{
		{Policy: mathx.PolicyBasic},
		{Policy: mathx.PolicyIncremented, Delta: 0},
		{Policy: mathx.PolicyIncremented, Delta: 0.02},
		{Policy: mathx.PolicyChernoff, Gamma: 0.9},
		{Policy: mathx.PolicyChernoff, Gamma: math.Nextafter(0.5, 1)},
		{Policy: mathx.PolicyChernoff, Gamma: math.Nextafter(1, 0)},
	} {
		for _, m := range []int{1, 2, 3, 7, 512, 4000} {
			checkThresholds(t, cfg, m, eps)
		}
	}
}

// FuzzThresholds holds the table path to Config.Threshold and the rawBeta
// search for any policy, m, parameter and ε in [0, 1], and for ε's float
// neighbours.
func FuzzThresholds(f *testing.F) {
	f.Add(uint8(0), uint16(1), 0.5, 0.0)
	f.Add(uint8(1), uint16(7), 0.1, 0.02)
	f.Add(uint8(2), uint16(512), 0.3, 0.9)
	f.Add(uint8(2), uint16(4000), 5e-324, 0.75)
	f.Add(uint8(0), uint16(3), 1-math.Ldexp(1, -53), 0.0)
	f.Add(uint8(1), uint16(2), 1.0, 3.0)
	f.Fuzz(func(t *testing.T, policy uint8, rawM uint16, epsilon, param float64) {
		if !(epsilon >= 0 && epsilon <= 1) {
			t.Skip("ε outside [0, 1] is rejected by Construct")
		}
		cfg := Config{Policy: mathx.Policy(int(policy)%3 + 1), Mode: ModeTrusted}
		switch cfg.Policy {
		case mathx.PolicyIncremented:
			cfg.Delta = math.Abs(param)
		case mathx.PolicyChernoff:
			_, frac := math.Modf(math.Abs(param))
			cfg.Gamma = 0.5 + frac/2
		}
		if cfg.validate() != nil {
			t.Skip("configuration rejected by Construct")
		}
		m := int(rawM)%5000 + 1
		eps := []float64{epsilon, math.Nextafter(epsilon, 0), math.Min(math.Nextafter(epsilon, 2), 1)}
		checkThresholds(t, cfg, m, eps)
	})
}

// A NaN ε, a Chernoff γ outside (0.5, 1) and a negative or NaN Δ are
// rejected before any stage runs, in both modes — also when every identity
// would end up hidden, where no per-identity β is ever computed.
func TestConstructRejectsBadParameters(t *testing.T) {
	truth := matrixWithFreqs(10, []int{3, 10, 10})
	for _, mode := range []Mode{ModeTrusted, ModeSecure} {
		base := Config{Policy: mathx.PolicyBasic, Mode: mode, C: 2, Seed: 1}
		for _, eps := range [][]float64{{math.NaN(), 0.5, 0.5}, {0.5, 1, math.NaN()}} {
			if _, err := Construct(truth, eps, base); !errors.Is(err, ErrShape) {
				t.Errorf("%v ε=%v: err %v, want ErrShape", mode, eps, err)
			}
		}
		bad := map[string]Config{}
		for _, g := range []float64{0, 0.5, 1, 1.5, -0.9, math.NaN(), math.Inf(1)} {
			cfg := base
			cfg.Policy, cfg.Gamma = mathx.PolicyChernoff, g
			bad[fmt.Sprintf("γ=%v", g)] = cfg
		}
		for _, d := range []float64{-0.01, math.Inf(-1), math.NaN()} {
			cfg := base
			cfg.Policy, cfg.Delta = mathx.PolicyIncremented, d
			bad[fmt.Sprintf("Δ=%v", d)] = cfg
		}
		for name, cfg := range bad {
			for _, eps := range [][]float64{{0.5, 0.5, 0.5}, {1, 1, 1}} {
				if _, err := Construct(truth, eps, cfg); !errors.Is(err, ErrBadConfig) {
					t.Errorf("%v %s ε=%v: err %v, want ErrBadConfig", mode, name, eps, err)
				}
			}
		}
		good := base
		good.Policy, good.Gamma = mathx.PolicyChernoff, 0.9
		if _, err := Construct(truth, []float64{0.5, 0.5, 0.5}, good); err != nil {
			t.Errorf("%v γ=0.9 rejected: %v", mode, err)
		}
	}
}

var thresholdSink uint64

// BenchmarkThresholds times the β-threshold stage on one goroutine at both
// benchmark shapes: "table" is what a construction runs (the σ side built
// once, one combine step per probe), "search" calls Config.Threshold per
// identity.
func BenchmarkThresholds(b *testing.B) {
	for _, sh := range benchShapes(b) {
		m, eps, cfg := sh.data.Matrix.Rows(), sh.data.Eps, sh.cfg
		perIdentity := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(eps)), "ns/identity")
		}
		b.Run(sh.name+"/table", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ts := cfg.thresholdSearch(m, true)
				for _, e := range eps {
					thresholdSink = ts.threshold(e)
				}
			}
			perIdentity(b)
		})
		b.Run(sh.name+"/search", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, e := range eps {
					thresholdSink = cfg.Threshold(e, m)
				}
			}
			perIdentity(b)
		})
	}
}
