package gmw

import (
	"math"
	"math/bits"
	"testing"
)

// onesRate is the share of set bits across a word stream.
func onesRate(words []uint64) float64 {
	ones := 0
	for _, w := range words {
		ones += bits.OnesCount64(w)
	}
	return float64(ones) / float64(Lanes*len(words))
}

// Dealer-output statistics: any single party's triple shares must be
// marginally uniform in every lane (else the dealer itself would leak the
// triple values to individual parties).
func TestTripleSharesMarginallyUniform(t *testing.T) {
	const count = 2000 // 128 000 lane triples
	triples, err := GenTriplesWideSharded(1, 3, count, 2)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		for name, stream := range map[string][]uint64{
			"A": triples[p].A, "B": triples[p].B, "C": triples[p].C,
		} {
			if rate := onesRate(stream); math.Abs(rate-0.5) > 0.01 {
				t.Errorf("party %d stream %s: ones rate %v, want ≈ 0.5", p, name, rate)
			}
			// Per lane: no bit position of the word may be biased.
			for k := 0; k < Lanes; k++ {
				ones := 0
				for _, w := range stream {
					ones += int(w >> uint(k) & 1)
				}
				if rate := float64(ones) / count; math.Abs(rate-0.5) > 0.05 {
					t.Errorf("party %d stream %s lane %d: ones rate %v, want ≈ 0.5", p, name, k, rate)
				}
			}
		}
	}
}

// The reconstructed a and b streams themselves must be unbiased coins, and
// c must equal a∧b exactly (already covered) with P(c=1) ≈ 0.25.
func TestTripleJointDistribution(t *testing.T) {
	const parties, count = 4, 2000
	triples, err := GenTriplesWideSharded(2, parties, count, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := make([]uint64, count)
	b := make([]uint64, count)
	c := make([]uint64, count)
	for p := 0; p < parties; p++ {
		xorWords(a, triples[p].A)
		xorWords(b, triples[p].B)
		xorWords(c, triples[p].C)
	}
	if r := onesRate(a); math.Abs(r-0.5) > 0.01 {
		t.Errorf("a rate %v", r)
	}
	if r := onesRate(b); math.Abs(r-0.5) > 0.01 {
		t.Errorf("b rate %v", r)
	}
	if r := onesRate(c); math.Abs(r-0.25) > 0.01 {
		t.Errorf("c rate %v, want ≈ 0.25", r)
	}
}

// A single party's view of (A, B, C) must not predict the real (a, b):
// correlation between a party's share and the reconstructed secret is ~0.
func TestShareUncorrelatedWithSecret(t *testing.T) {
	const count = 2000
	triples, err := GenTriplesWideSharded(3, 3, count, 2)
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for i := 0; i < count; i++ {
		var a uint64
		for p := 0; p < 3; p++ {
			a ^= triples[p].A[i]
		}
		agree += bits.OnesCount64(^(triples[0].A[i] ^ a))
	}
	rate := float64(agree) / (Lanes * count)
	if math.Abs(rate-0.5) > 0.01 {
		t.Fatalf("party 0's A share agrees with secret at rate %v, want ≈ 0.5", rate)
	}
}

// The sharded dealer must produce bit-identical triples at every worker
// count, and the triples must satisfy the Beaver invariant.
func TestGenTriplesShardedDeterministicAcrossWorkers(t *testing.T) {
	const parties, count = 3, 3*tripleShard + 117 // spans several shards plus a ragged tail
	base, err := GenTriplesWideSharded(99, parties, count, 1)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < count; tt++ {
		var a, b, c uint64
		for p := 0; p < parties; p++ {
			a ^= base[p].A[tt]
			b ^= base[p].B[tt]
			c ^= base[p].C[tt]
		}
		if a&b != c {
			t.Fatalf("word-triple %d: a&b != c", tt)
		}
	}
	for _, workers := range []int{2, 8} {
		got, err := GenTriplesWideSharded(99, parties, count, workers)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < parties; p++ {
			for tt := 0; tt < count; tt++ {
				if got[p].A[tt] != base[p].A[tt] || got[p].B[tt] != base[p].B[tt] || got[p].C[tt] != base[p].C[tt] {
					t.Fatalf("workers=%d: party %d word-triple %d differs from workers=1", workers, p, tt)
				}
			}
		}
	}
}

// Edge requests the sharded dealer accepts: no ordinals, and worker counts
// of zero (all CPUs) or more than there are shards.
func TestGenTriplesShardedValidation(t *testing.T) {
	empty, err := GenTriplesWideSharded(1, 3, 0, 2)
	if err != nil || len(empty) != 3 || len(empty[2].C) != 0 {
		t.Fatalf("zero-count deal: %v, %d sets", err, len(empty))
	}
	ref, err := GenTriplesWideSharded(1, 2, tripleShard+1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 64} {
		got, err := GenTriplesWideSharded(1, 2, tripleShard+1, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for tt := range ref[1].C {
			if got[1].C[tt] != ref[1].C[tt] {
				t.Fatalf("workers=%d: word-triple %d differs from workers=1", workers, tt)
			}
		}
	}
}
