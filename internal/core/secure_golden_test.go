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
// ragged 40 × 130 shape (three identity batches of 48, the last partial)
// with exactly one true common identity (column 0, held by 39 of 40
// providers). Every row — Config.Wide false and true, 1 and 8 workers, and
// the TCP row — must agree with the policy's entry. (Config.Wide chose
// between a byte-per-wire and the bit-sliced evaluator while both existed;
// the rows of both settings stay so that the one evaluator left is held to
// the values the other recorded.)
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

// goldenSecureBatch extends goldenSecure to other batchings of the same
// fixture, keyed by policy and BatchSize: the whole set (0), one full word
// of identities (64) and a width that divides neither 64 nor 130 (33). The
// mixing coins are drawn per batch, so each batching publishes its own M′.
// The arithmetic style changes no opened value, so ripple and prefix rows
// share an entry. The values were recorded from the byte-per-wire scalar
// evaluator, and the bit-sliced evaluator was checked against them on the
// same build.
var goldenSecureBatch = map[string]struct {
	sha    string
	lambda float64
}{
	"basic/batch=0":     {"da3aa4efc03f13c089bdc35b9b613378c33f991a215398f3c1b295a93ed26ede", 0.04392764857881137},
	"basic/batch=64":    {"d3f8f178e7a6096ba8c435125a97c1eb8af4dfc6c5f417bcd1c92d53c08cc7c4", 0.04392764857881137},
	"basic/batch=33":    {"cbaebd51660ee81745fce4135a2ce8217ff54fe32a2648643b40fe44d6dcf627", 0.04392764857881137},
	"inc-exp/batch=0":   {"811eff17d782b0e100bb5ff56edcaa94a3c5ad181cc5e49e13360a4bbd9eb54c", 0.04392764857881137},
	"inc-exp/batch=64":  {"2fc8d182834fac0dabfb83d1b7d1ae9bab9c252fa88cde7a4bc7e324c030f152", 0.04392764857881137},
	"inc-exp/batch=33":  {"607b3b6e45de728f5c917f03d5cf4b7aeb240969e75518c0a9822ae437672bbf", 0.04392764857881137},
	"chernoff/batch=0":  {"2bfe1c12df817d72ba0bf8ff5bbbbf48bcd25a9a159eeabcd7d95535037b7605", 0.04392764857881137},
	"chernoff/batch=64": {"5d462c5f60d0230ff99415511f43c81655aaf545c9089b5ec582d81dd14239f2", 0.04392764857881137},
	"chernoff/batch=33": {"e748f608256947829939b3fdeb070c3769c9d4ab9bf4fbab702f5a0399e71122", 0.04392764857881137},
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

	check := func(name, key string, cfg Config) {
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
		want, ok := goldenSecure[key]
		if !ok {
			want = goldenSecureBatch[key]
		}
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

	for _, pol := range workerPolicies {
		for _, batch := range []int{0, 64, 33} {
			key := fmt.Sprintf("%s/batch=%d", pol.name, batch)
			for _, arith := range []circuit.Style{circuit.StyleRipple, circuit.StylePrefix} {
				for _, wide := range []bool{false, true} {
					cfg := base
					pol.set(&cfg)
					cfg.BatchSize, cfg.Arithmetic, cfg.Wide = batch, arith, wide
					check(fmt.Sprintf("%s/%v/wide=%v", key, arith, wide), key, cfg)
				}
			}
		}
	}
}
