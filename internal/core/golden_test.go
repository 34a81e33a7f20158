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
// The values were recorded before aggregation moved from per-column
// ColCount probes to bitmat.ColCounts and must never change without a
// stated reason: every RNG stream, tile boundary and draw order of the
// trusted pipeline feeds them. They are also the oracle a future removal
// of an evaluator or a layout change is checked against.
var goldenPublished = map[string]struct {
	sha    string
	lambda float64
}{
	"basic":    {"cad599a06de0ee1397db571d796a2cf583065f3afcb4dc094fa72d95a4e37543", 0.01717171717171717},
	"inc-exp":  {"800406a36126930cb861f590a9081548659db9b1cd03d74567c60d29f5eeb32d", 0.01717171717171717},
	"chernoff": {"5dc92493501aa2964dc8cdfed4f56b58273963a2bdfa0ef4d8cc254564a9013d", 0.01717171717171717},
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
