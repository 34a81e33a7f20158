package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/transport"
)

// goldenSecure pins the secure pipeline's output: SHA-256 of
// Result.Published's binary encoding, CommonCount and λ, per β policy, on a
// ragged 40 × 130 shape with exactly one true common identity (column 0,
// held by 39 of 40 providers). Every row must agree with its policy's
// entry: BatchSize 48 (three batches, the last partial), 0 (the whole set),
// 64 (one word) and 33 (dividing neither 64 nor 130), ripple and prefix
// arithmetic, 1 and 8 workers, and the TCP row. Batch size is a public
// release granularity and shapes no other output; opened values do not
// depend on the arithmetic style, the worker count or the transport.
//
// The values were re-pinned once, when the per-batch mixing-coin streams
// were replaced by the keyed per-coordinator, per-identity coin (prf.Coins),
// which collapsed the twelve per-(policy, BatchSize) entries into one per
// policy. λ and CommonCount were unchanged, and every column hidden under
// neither coin was checked bit-identical to the earlier build's M′ at every
// batch size. Frequencies are exact sums whatever the shares are, so a
// change to how SecSumShare shares or packs must leave every value here
// untouched.
var goldenSecure = map[string]struct {
	sha    string
	lambda float64
}{
	"basic":    {"1ee0fdaae10054c2d7302a4d2104577d06c3a25ec3d7e5d5725305bf61717f05", 0.04392764857881137},
	"inc-exp":  {"760bf2f6e180e6961ba3d8d0c89b9c3f1582814a537c255a1e6f532a822d96d0", 0.04392764857881137},
	"chernoff": {"ca8575a6678eabafac552681712b735a6ae2394b838b96fb8421937ebb0ded9c", 0.04392764857881137},
}

func TestSecurePublishedGolden(t *testing.T) {
	const m, n = 40, 130
	rng := rand.New(rand.NewSource(20140701))
	truth := randomMatrix(rng, m, n, 0.04)
	for i := 0; i < 39; i++ {
		truth.Set(i, 0, true)
	}
	eps := make([]float64, n)
	for j := range eps {
		eps[j] = 0.2 + 0.6*rng.Float64()
	}
	eps[0] = 0.85

	check := func(name, policy string, cfg Config) {
		t.Helper()
		res, err := Construct(truth, eps, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		raw, err := res.Published.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		want := goldenSecure[policy]
		if got := hex.EncodeToString(sum[:]); got != want.sha {
			t.Errorf("%s: sha256(M′) = %s, want %s", name, got, want.sha)
		}
		if res.CommonCount != 1 {
			t.Errorf("%s: CommonCount = %d, want 1", name, res.CommonCount)
		}
		if res.Lambda != want.lambda {
			t.Errorf("%s: Lambda = %v, want %v", name, res.Lambda, want.lambda)
		}
	}
	base := Config{Mode: ModeSecure, C: 3, Seed: 777, BatchSize: 48}
	for _, pol := range workerPolicies {
		for _, workers := range []int{1, 8} {
			cfg := base
			pol.set(&cfg)
			cfg.Workers = workers
			check(fmt.Sprintf("%s/workers=%d", pol.name, workers), pol.name, cfg)
		}
		for _, batch := range []int{0, 64, 33} {
			for _, arith := range []circuit.Style{circuit.StyleRipple, circuit.StylePrefix} {
				cfg := base
				pol.set(&cfg)
				cfg.BatchSize, cfg.Arithmetic = batch, arith
				check(fmt.Sprintf("%s/batch=%d/%v", pol.name, batch, arith), pol.name, cfg)
			}
		}
	}
	cfg := base
	workerPolicies[2].set(&cfg)
	cfg.Workers = 2
	cfg.NewNetwork = func(parties int) (transport.Network, error) { return transport.NewTCP(parties) }
	check("chernoff/tcp", workerPolicies[2].name, cfg)
}
