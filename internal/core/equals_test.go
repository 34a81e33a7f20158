package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitmat"
)

// equalsShape is one input of TestSecureEqualsTrusted and
// FuzzSecureEqualsTrusted: a random m × n matrix whose first `commons`
// columns every provider holds, ε drawn per owner, and the configuration
// both modes run.
type equalsShape struct {
	m, n, c, coinBits, commons, policy int
	xi                                 float64 // XiOverride; 0 takes the public ξ
	seed                               int64
}

var (
	equalsCoinBits = []int{2, 6, 16, 32}
	equalsXi       = []float64{0, 0, 0.6, 0.999}
)

// shapeOf maps raw draws onto the shape space: c ∈ 2…5, m ∈ c…40,
// n ∈ 1…150, 0–3 planted commons, CoinBits ∈ {2, 6, 16, 32}, ξ public (half
// the draws), 0.6 or 0.999, and one of the three β policies.
func shapeOf(seed int64, m, n, c, bits, commons, xi, policy uint8) equalsShape {
	s := equalsShape{c: 2 + int(c)%4, n: 1 + int(n)%150, seed: seed}
	s.m = s.c + int(m)%(41-s.c)
	s.coinBits = equalsCoinBits[int(bits)%len(equalsCoinBits)]
	s.commons = min(int(commons)%4, s.n)
	s.xi = equalsXi[int(xi)%len(equalsXi)]
	s.policy = int(policy) % len(workerPolicies)
	return s
}

func (s equalsShape) String() string {
	return fmt.Sprintf("m=%d n=%d c=%d bits=%d commons=%d xi=%v %s seed=%d",
		s.m, s.n, s.c, s.coinBits, s.commons, s.xi, workerPolicies[s.policy].name, s.seed)
}

func (s equalsShape) inputs() (*bitmat.Matrix, []float64, Config) {
	rng := rand.New(rand.NewSource(s.seed))
	truth := randomMatrix(rng, s.m, s.n, 0.02+0.15*rng.Float64())
	for j := 0; j < s.commons; j++ {
		for i := 0; i < s.m; i++ {
			truth.Set(i, j, true)
		}
	}
	eps := make([]float64, s.n)
	lo := 0.1 + 0.5*rng.Float64()
	for j := range eps {
		eps[j] = lo + 0.3*rng.Float64()
	}
	cfg := Config{Mode: ModeTrusted, C: s.c, CoinBits: s.coinBits, XiOverride: s.xi, Seed: s.seed, Workers: 2}
	workerPolicies[s.policy].set(&cfg)
	return truth, eps, cfg
}

// secureEqualsTrusted runs shape s in both modes and requires the same
// result: word-equal M′, and equal β, hidden set, thresholds, common count,
// λ and ξ. It returns the result.
func secureEqualsTrusted(t *testing.T, s equalsShape) *Result {
	t.Helper()
	truth, eps, cfg := s.inputs()
	tru, err := Construct(truth, eps, cfg)
	if err != nil {
		t.Fatalf("%v: trusted: %v", s, err)
	}
	cfg.Mode = ModeSecure
	sec, err := Construct(truth, eps, cfg)
	if err != nil {
		t.Fatalf("%v: secure: %v", s, err)
	}
	resultsEqual(t, tru, sec)
	if t.Failed() {
		t.Fatalf("%v: secure and trusted results differ (λ=%v)", s, sec.Lambda)
	}
	if !sec.Published.Covers(truth) {
		t.Fatalf("%v: published matrix lost true positives", s)
	}
	st := sec.Secure
	if st == nil || st.SecSumRounds != 2 || st.CountBelowCircuit.Gates == 0 || st.RevealCircuit.Gates == 0 ||
		st.MPC.Messages == 0 || st.SecSum.Messages == 0 {
		t.Fatalf("%v: secure stats empty: %+v", s, st)
	}
	return sec
}

// Trusted mode is the secure pipeline evaluated in the clear: over random
// shapes that reach λ = 0, 0 < λ < 1 and λ ≥ 1, both modes return the same
// M′, β, hidden set, common count, λ and ξ. With two ways to pick ξ and two
// mixing coins, every shape with commons and 0 < λ < 1 told them apart.
func TestSecureEqualsTrusted(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	// Shapes per λ regime, and shapes with 0 < λ < 1 that mixed an owner in.
	var zero, mid, one, mixed int
	for trial := 0; trial < 40; trial++ {
		var b [7]uint8
		for i := range b {
			b[i] = uint8(rng.Intn(256))
		}
		res := secureEqualsTrusted(t, shapeOf(rng.Int63(), b[0], b[1], b[2], b[3], b[4], b[5], b[6]))
		hidden := 0
		for _, h := range res.Hidden {
			if h {
				hidden++
			}
		}
		switch {
		case res.Lambda == 0:
			zero++
		case res.Lambda < 1:
			mid++
			if hidden > res.CommonCount {
				mixed++
			}
		default:
			one++
		}
	}
	t.Logf("λ = 0 / (0, 1) / 1 on %d / %d / %d shapes; %d mixed an owner in", zero, mid, one, mixed)
	if zero < 3 || mixed < 3 || one < 3 {
		t.Fatalf("fixture: λ = 0 / (0, 1) with an owner mixed in / 1 on %d / %d / %d shapes, want ≥ 3 each", zero, mixed, one)
	}
}

func FuzzSecureEqualsTrusted(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(120), uint8(1), uint8(2), uint8(2), uint8(0), uint8(2))
	f.Add(int64(2), uint8(10), uint8(9), uint8(0), uint8(0), uint8(3), uint8(3), uint8(0))
	f.Add(int64(3), uint8(40), uint8(64), uint8(3), uint8(3), uint8(0), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, m, n, c, bits, commons, xi, policy uint8) {
		secureEqualsTrusted(t, shapeOf(seed, m, n, c, bits, commons, xi, policy))
	})
}
