package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/mathx"
)

// workerPolicies are the three β policies under test, with the extra
// parameter each needs.
var workerPolicies = []struct {
	name string
	set  func(*Config)
}{
	{"basic", func(c *Config) { c.Policy = mathx.PolicyBasic }},
	{"inc-exp", func(c *Config) { c.Policy = mathx.PolicyIncremented; c.Delta = 0.02 }},
	{"chernoff", func(c *Config) { c.Policy = mathx.PolicyChernoff; c.Gamma = 0.9 }},
}

// resultsEqual compares every published field of two construction results.
func resultsEqual(t *testing.T, want, got *Result) {
	t.Helper()
	if !want.Published.Equal(got.Published) {
		t.Errorf("published matrices differ")
	}
	if !reflect.DeepEqual(want.Betas, got.Betas) {
		t.Errorf("betas differ: %v vs %v", want.Betas, got.Betas)
	}
	if !reflect.DeepEqual(want.Thresholds, got.Thresholds) {
		t.Errorf("thresholds differ: %v vs %v", want.Thresholds, got.Thresholds)
	}
	if !reflect.DeepEqual(want.Hidden, got.Hidden) {
		t.Errorf("hidden sets differ: %v vs %v", want.Hidden, got.Hidden)
	}
	if want.CommonCount != got.CommonCount {
		t.Errorf("common count %d vs %d", want.CommonCount, got.CommonCount)
	}
	if want.Lambda != got.Lambda || want.Xi != got.Xi {
		t.Errorf("mixing (λ=%v ξ=%v) vs (λ=%v ξ=%v)", want.Lambda, want.Xi, got.Lambda, got.Xi)
	}
}

// TestConstructDeterministicAcrossWorkers asserts the tentpole invariant:
// Construct output is bit-identical at any worker-pool size, for every β
// policy, in both trusted and secure mode. The per-shard RNG streams are
// derived from (Seed, stage, shard index) alone, so shard-to-worker
// assignment must not matter.
func TestConstructDeterministicAcrossWorkers(t *testing.T) {
	// Trusted fixture: large enough to span several column shards (n >
	// colShard) and row shards (m > rowShard), so every parallel stage
	// genuinely splits.
	rng := rand.New(rand.NewSource(7))
	bigTruth := randomMatrix(rng, 300, 150, 0.08)
	bigEps := make([]float64, 150)
	for j := range bigEps {
		bigEps[j] = 0.3 + 0.5*rng.Float64()
	}

	// Secure fixture: small parties, 7 identities in one word.
	secTruth := randomMatrix(rng, 9, 7, 0.4)
	secEps := make([]float64, 7)
	for j := range secEps {
		secEps[j] = 0.4 + 0.4*rng.Float64()
	}

	modes := []struct {
		name  string
		truth *bitmat.Matrix
		eps   []float64
		set   func(*Config)
	}{
		{"trusted", bigTruth, bigEps, func(c *Config) { c.Mode = ModeTrusted }},
		{"secure", secTruth, secEps, func(c *Config) {
			c.Mode = ModeSecure
			c.C = 3
		}},
	}

	for _, mode := range modes {
		for _, pol := range workerPolicies {
			t.Run(mode.name+"/"+pol.name, func(t *testing.T) {
				results := make(map[int]*Result)
				for _, workers := range []int{1, 2, 8} {
					cfg := Config{Seed: 99, Workers: workers}
					mode.set(&cfg)
					pol.set(&cfg)
					res, err := Construct(mode.truth, mode.eps, cfg)
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					results[workers] = res
				}
				for _, workers := range []int{2, 8} {
					t.Logf("comparing workers=1 vs workers=%d", workers)
					resultsEqual(t, results[1], results[workers])
				}
			})
		}
	}
}

// TestConstructWorkersValidation rejects negative pool sizes.
func TestConstructWorkersValidation(t *testing.T) {
	truth := matrixWithFreqs(10, []int{3, 4})
	cfg := Config{Policy: mathx.PolicyChernoff, Gamma: 0.9, Mode: ModeTrusted, Workers: -1}
	if _, err := Construct(truth, []float64{0.5, 0.5}, cfg); err == nil {
		t.Fatal("Workers=-1 accepted")
	}
}
