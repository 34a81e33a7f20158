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
// The values must never change without a stated reason: the mixing coins
// and every publication coin feed them. They are also the oracle a future
// removal of an evaluator or a layout change is checked against. The lambda
// values (and the CommonCount assertion) date from before aggregation moved
// to bitmat.ColCounts. The hashes were re-pinned three times, deliberately
// and each time for one cause, with λ and CommonCount unchanged:
//   - when Equation 2's per-tile math/rand stream was replaced by the keyed
//     per-cell coin (publishSharded), which changes the noise bits of M′
//     and nothing else;
//   - when the per-shard mixing streams were replaced by a keyed 64-bit
//     per-owner mixing coin, which changes which non-common owners are
//     mixed in; every column hidden under neither coin was checked
//     bit-identical;
//   - when trusted mode took the secure pipeline's mixing rule: ξ over the
//     identities that can be common (0.85 here too) and the XOR of three
//     coordinators' prf.Coins words mod 2^16 against ⌊λ · 2^16⌋. It hides
//     10 non-common owners instead of 2; every column hidden under neither
//     coin was checked bit-identical.
var goldenPublished = map[string]struct {
	sha    string
	lambda float64
}{
	"basic":    {"9e2974c81bbb9682e0fdc07d6104241469bd0910cd8800fc78b527a1ab954467", 0.01717171717171717},
	"inc-exp":  {"7f7395d62735ac309f948e71c842d3cdbc269d82205e61608842dcccaeb0cf9e", 0.01717171717171717},
	"chernoff": {"762b067a0959b588ba6c2783b857452f429de6bb409e5ece1191be34a2864113", 0.01717171717171717},
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
