package core

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/mathx"
)

// Threshold is non-increasing in ε: a stronger privacy demand can only
// lower the frequency at which an identity becomes common.
func TestThresholdMonotoneInEpsilonQuick(t *testing.T) {
	for _, cfg := range []Config{
		{Policy: mathx.PolicyBasic},
		{Policy: mathx.PolicyIncremented, Delta: 0.02},
		{Policy: mathx.PolicyChernoff, Gamma: 0.9},
	} {
		prop := func(a, b uint16, rawM uint16) bool {
			m := int(rawM%2000) + 10
			e1 := float64(a) / 65535
			e2 := float64(b) / 65535
			if e1 > e2 {
				e1, e2 = e2, e1
			}
			return cfg.Threshold(e1, m) >= cfg.Threshold(e2, m)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("policy %v: %v", cfg.Policy, err)
		}
	}
}

// Threshold is consistent with rawBeta: β*(t/m) >= 1 at the threshold and
// < 1 just below it.
func TestThresholdBoundaryQuick(t *testing.T) {
	cfg := Config{Policy: mathx.PolicyChernoff, Gamma: 0.9}
	prop := func(a uint16, rawM uint16) bool {
		m := int(rawM%2000) + 10
		eps := 0.01 + 0.98*float64(a)/65535
		th := cfg.Threshold(eps, m)
		if th > uint64(m) {
			// Never common: β* < 1 even at σ = 1... which contradicts
			// βb(1, ε>0) = ∞; this branch only occurs for ε = 0 (excluded).
			return !mathx.IsCommon(cfg.rawBeta(1, eps, m))
		}
		atThreshold := mathx.IsCommon(cfg.rawBeta(float64(th)/float64(m), eps, m))
		belowOK := th == 1 || !mathx.IsCommon(cfg.rawBeta(float64(th-1)/float64(m), eps, m))
		return atThreshold && belowOK
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Publication is column-independent: publishing identities separately with
// the same per-column RNG state is distributionally identical. We verify a
// weaker but deterministic slice: β = 0 and β = 1 columns are untouched by
// neighbours' randomness.
func TestPublishColumnIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	truth := randomMatrix(rng, 200, 6, 0.1)
	betas := []float64{0, 1, 0.5, 0, 1, 0.5}
	pub := publishKernel(truth, betas, 2)
	for _, j := range []int{0, 3} {
		for i := 0; i < 200; i++ {
			if pub.Get(i, j) != truth.Get(i, j) {
				t.Fatalf("β=0 column %d changed at row %d", j, i)
			}
		}
	}
	for _, j := range []int{1, 4} {
		if pub.ColCount(j) != 200 {
			t.Fatalf("β=1 column %d not full", j)
		}
	}
}

// Secure construction must not leak goroutines (fire-and-forget ban): the
// goroutine count returns to baseline after repeated runs.
func TestSecureConstructNoGoroutineLeak(t *testing.T) {
	truth := matrixWithFreqs(8, []int{3, 5})
	eps := []float64{0.5, 0.6}
	// Warm up and let any lazily-started runtime goroutines settle.
	if _, err := Construct(truth, eps, secureCfg(1)); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	time.Sleep(20 * time.Millisecond)
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		if _, err := Construct(truth, eps, secureCfg(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after 10 secure constructions", before, runtime.NumGoroutine())
}

// Recall is a hard invariant across random configurations.
func TestRecallQuick(t *testing.T) {
	prop := func(seed int64, pol uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 20 + rng.Intn(200)
		n := 1 + rng.Intn(10)
		truth := randomMatrix(rng, m, n, 0.2)
		eps := make([]float64, n)
		for j := range eps {
			eps[j] = rng.Float64()
		}
		cfg := Config{Mode: ModeTrusted, Seed: seed}
		switch pol % 3 {
		case 0:
			cfg.Policy = mathx.PolicyBasic
		case 1:
			cfg.Policy = mathx.PolicyIncremented
			cfg.Delta = 0.02
		default:
			cfg.Policy = mathx.PolicyChernoff
			cfg.Gamma = 0.9
		}
		res, err := Construct(truth, eps, cfg)
		if err != nil {
			return false
		}
		return res.Published.Covers(truth)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Hidden identities always publish full columns; revealed identities never
// have β = 1 unless ε demands broadcast.
func TestHiddenFullColumnInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	truth := randomMatrix(rng, 150, 12, 0.15)
	eps := make([]float64, 12)
	for j := range eps {
		eps[j] = 0.4 + 0.5*rng.Float64()
	}
	res, err := Construct(truth, eps, Config{Policy: mathx.PolicyChernoff, Gamma: 0.9, Mode: ModeTrusted, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for j := range eps {
		full := res.Published.ColCount(j) == truth.Rows()
		if res.Hidden[j] && !full {
			t.Fatalf("hidden identity %d published %d of %d", j, res.Published.ColCount(j), truth.Rows())
		}
	}
}
