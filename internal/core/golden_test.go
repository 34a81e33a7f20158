package core

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
)

// goldenPublished pins M′ itself: SHA-256 of Result.Published's binary
// encoding plus the mixing inputs, per β policy, on a ragged geometry
// (197 × 331: neither side a multiple of 64, so the last column shard, the
// last row shard and the last 64×64 tile are all partial) with exactly one
// true common identity (column 0, held by 190 of 197 providers).
//
// The values must never change without a stated reason: the mixing streams
// and column-shard boundaries of the trusted pipeline and every publication
// coin feed them. They are also the oracle a future removal of an evaluator
// or a layout change is checked against. The lambda values (and the
// CommonCount assertion) date from before aggregation moved to
// bitmat.ColCounts. The three hashes were re-pinned once, deliberately, when
// Equation 2's per-tile math/rand stream was replaced by the keyed per-cell
// coin (publishSharded): that changes the noise bits of M′ for every seed
// and nothing else — β, the hidden set, λ and CommonCount are as before.
var goldenPublished = map[string]struct {
	sha    string
	lambda float64
}{
	"basic":    {"040583f0f1cd6db641b9428eaf61fd78452939da356d9b0553211d9229b161aa", 0.01717171717171717},
	"inc-exp":  {"1b54e368caaa7e53be5e42a35e08d08fa3d0d44d7732362f045133551ee078b4", 0.01717171717171717},
	"chernoff": {"defe350e715e048fba159f7be14c6738a7e73f70ab8448c0378e480a615a8a5f", 0.01717171717171717},
}

func TestPublishedGolden(t *testing.T) {
	const m, n = 197, 331
	rng := rand.New(rand.NewSource(20140630))
	truth := randomMatrix(rng, m, n, 0.06)
	for i := 0; i < 190; i++ {
		truth.Set(i, 0, true)
	}
	eps := make([]float64, n)
	for j := range eps {
		eps[j] = 0.2 + 0.6*rng.Float64()
	}
	eps[0] = 0.85

	for _, pol := range workerPolicies {
		for _, workers := range []int{1, 8} {
			cfg := Config{Mode: ModeTrusted, Seed: 424242, Workers: workers}
			pol.set(&cfg)
			res, err := Construct(truth, eps, cfg)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", pol.name, workers, err)
			}
			raw, err := res.Published.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(raw)
			want := goldenPublished[pol.name]
			if got := hex.EncodeToString(sum[:]); got != want.sha {
				t.Errorf("%s workers=%d: sha256(M′) = %s, want %s", pol.name, workers, got, want.sha)
			}
			if res.CommonCount != 1 {
				t.Errorf("%s workers=%d: CommonCount = %d, want 1", pol.name, workers, res.CommonCount)
			}
			if res.Lambda != want.lambda {
				t.Errorf("%s workers=%d: Lambda = %v, want %v", pol.name, workers, res.Lambda, want.lambda)
			}
		}
	}
}
