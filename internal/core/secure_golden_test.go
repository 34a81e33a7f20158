package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/transport"
)

// goldenSecure pins the secure pipeline's output: SHA-256 of
// Result.Published's binary encoding, CommonCount and λ, per β policy, on a
// ragged 40 × 130 shape (three identity batches of 48, the last partial)
// with exactly one true common identity (column 0, held by 39 of 40
// providers). Every row — scalar and wide evaluators, 1 and 8 workers, and
// the TCP row — must agree with the policy's entry.
//
// The values were recorded by running this test against the build whose
// SecSumShare still split every input bit with math/rand and shipped whole
// share vectors. Frequencies are exact sums whatever the shares are, and the
// seeds of stages B and C and the publication coins do not depend on them, so
// a change to how SecSumShare shares or packs must leave every value here
// untouched.
var goldenSecure = map[string]struct {
	sha    string
	lambda float64
}{
	"basic":    {"3d621c30181795d43c440e2283469c90f3045a7fca2acdce091e26f637049a20", 0.04392764857881137},
	"inc-exp":  {"e962e5e977678d79828f2e396a7c5fc0f9e3f1664f9c1781c35b1d0c55793124", 0.04392764857881137},
	"chernoff": {"643d866e02f76f00d06abad2d94ad73318541a515d984e097ac4adc26c7595cc", 0.04392764857881137},
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

	check := func(name, pol string, cfg Config) {
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
		want := goldenSecure[pol]
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
		for _, wide := range []bool{false, true} {
			for _, workers := range []int{1, 8} {
				cfg := base
				pol.set(&cfg)
				cfg.Wide, cfg.Workers = wide, workers
				check(fmt.Sprintf("%s/wide=%v/workers=%d", pol.name, wide, workers), pol.name, cfg)
			}
		}
	}
	cfg := base
	workerPolicies[2].set(&cfg)
	cfg.Wide, cfg.Workers = true, 2
	cfg.NewNetwork = func(parties int) (transport.Network, error) { return transport.NewTCP(parties) }
	check("chernoff/wide/tcp", workerPolicies[2].name, cfg)
}
