package core

import (
	"math/rand"
	"testing"

	"repro/internal/mathx"
)

// Batched and unbatched secure constructions must agree on everything the
// protocol determines (commons count, thresholds, revealed β values); only
// the mixing coins differ because they are drawn per batch.
func TestBatchedSecureMatchesUnbatched(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	truth := randomMatrix(rng, 9, 11, 0.35)
	eps := make([]float64, 11)
	for j := range eps {
		eps[j] = 0.3 + 0.5*rng.Float64()
	}
	base := secureCfg(5)
	base.Policy = mathx.PolicyBasic

	whole, err := Construct(truth, eps, base)
	if err != nil {
		t.Fatal(err)
	}
	batched := base
	batched.BatchSize = 3 // 11 identities → batches of 3,3,3,2
	parts, err := Construct(truth, eps, batched)
	if err != nil {
		t.Fatal(err)
	}

	if whole.CommonCount != parts.CommonCount {
		t.Fatalf("commons: %d vs %d", whole.CommonCount, parts.CommonCount)
	}
	for j := range whole.Thresholds {
		if whole.Thresholds[j] != parts.Thresholds[j] {
			t.Fatalf("threshold %d differs", j)
		}
	}
	for j := range whole.Betas {
		if !whole.Hidden[j] && !parts.Hidden[j] && whole.Betas[j] != parts.Betas[j] {
			t.Fatalf("β %d: %v vs %v", j, whole.Betas[j], parts.Betas[j])
		}
	}
	if !parts.Published.Covers(truth) {
		t.Fatal("batched construction lost recall")
	}
	// Both run the same three executions; only the count opener's depth
	// follows the batch size.
	if parts.Secure.MPC.Messages <= whole.Secure.MPC.Messages/2 {
		t.Fatalf("batched messages %d suspiciously low vs %d", parts.Secure.MPC.Messages, whole.Secure.MPC.Messages)
	}
}

func TestBatchSizeValidation(t *testing.T) {
	truth := matrixWithFreqs(5, []int{2})
	cfg := Config{Policy: mathx.PolicyBasic, Mode: ModeTrusted, BatchSize: -1}
	if _, err := Construct(truth, []float64{0.5}, cfg); err == nil {
		t.Fatal("negative batch size accepted")
	}
}

func TestBatchLargerThanN(t *testing.T) {
	truth := matrixWithFreqs(6, []int{2, 3})
	cfg := secureCfg(9)
	cfg.BatchSize = 100 // clamped to n
	res, err := Construct(truth, []float64{0.5, 0.5}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Published.Covers(truth) {
		t.Fatal("recall lost")
	}
}

func TestBatchSizeOne(t *testing.T) {
	truth := matrixWithFreqs(6, []int{2, 6, 1})
	cfg := secureCfg(10)
	cfg.Policy = mathx.PolicyBasic
	cfg.BatchSize = 1
	res, err := Construct(truth, []float64{0.5, 0.5, 0.5}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CommonCount != 1 {
		t.Fatalf("commons = %d, want 1", res.CommonCount)
	}
	if !res.Hidden[1] {
		t.Fatal("σ=1 identity not hidden with batch size 1")
	}
}
