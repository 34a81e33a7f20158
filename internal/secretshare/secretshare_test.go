package secretshare

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/field"
)

// ring is Z_q, q a power of two.
func ring(t *testing.T, q uint64) field.Field {
	t.Helper()
	f, err := field.NewAdditive(q)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewValidation(t *testing.T) {
	f := ring(t, 1<<61)
	if _, err := New(f, 1); err == nil {
		t.Error("c=1 accepted")
	}
	if _, err := New(f, 0); err == nil {
		t.Error("c=0 accepted")
	}
	s, err := New(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Shares() != 3 {
		t.Errorf("Shares = %d", s.Shares())
	}
	if s.Field().Modulus() != f.Modulus() {
		t.Error("Field modulus mismatch")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MustNew(ring(t, 1<<61), 1)
}

// split decomposes secret v into c shares summing to v mod q: c−1 drawn
// uniformly from Z_q, the last the balancing term. Construction never
// splits a value this way (SecSumShare expands keyed shares, see
// internal/secsum); the tests hold the scheme's arithmetic to it.
func split(rng *rand.Rand, s Scheme, v uint64) []uint64 {
	f := s.Field()
	q := f.Modulus()
	shares := make([]uint64, s.Shares())
	last := f.Reduce(v)
	for k := range shares[1:] {
		shares[k] = uint64(rng.Int63n(int64(q)))
		last = f.Sub(last, shares[k])
	}
	shares[len(shares)-1] = last
	return shares
}

// Recoverability (Theorem 4.1): Combine(split(v)) == v for all v.
func TestSplitCombineQuick(t *testing.T) {
	f := ring(t, 1<<61)
	rng := rand.New(rand.NewSource(11))
	for _, c := range []int{2, 3, 5, 16} {
		s := MustNew(f, c)
		prop := func(raw uint64) bool {
			v := f.Reduce(raw)
			shares := split(rng, s, v)
			if len(shares) != c {
				return false
			}
			for _, sh := range shares {
				if sh >= f.Modulus() {
					return false
				}
			}
			got, err := s.Combine(shares)
			return err == nil && got == v
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("c=%d: %v", c, err)
		}
	}
}

func TestCombineErrors(t *testing.T) {
	s := MustNew(ring(t, 1<<61), 3)
	if _, err := s.Combine(nil); err == nil {
		t.Error("empty shares accepted")
	}
	if _, err := s.Combine([]uint64{1, 2}); err == nil {
		t.Error("short share set accepted")
	}
	if _, err := s.Combine([]uint64{1, 2, 3, 4}); err == nil {
		t.Error("long share set accepted")
	}
}

// Secrecy (Theorem 4.1): any c-1 shares of a fixed secret are uniform —
// statistically, each partial share's low bits look unbiased and two
// different secrets produce indistinguishable marginal distributions.
func TestPartialSharesUniform(t *testing.T) {
	f := ring(t, 256) // small ring so chi-square has power
	s := MustNew(f, 3)
	rng := rand.New(rand.NewSource(12))

	countsSecretA := make([]int, 256)
	countsSecretB := make([]int, 256)
	const draws = 256 * 200
	for i := 0; i < draws; i++ {
		countsSecretA[split(rng, s, 7)[0]]++
		countsSecretB[split(rng, s, 250)[0]]++
	}
	chiA := chiSquare(countsSecretA, draws)
	chiB := chiSquare(countsSecretB, draws)
	// 255 dof: mean 255, sd ~22.6; 400 is ~6 sigma.
	if chiA > 400 || chiB > 400 {
		t.Fatalf("first share not uniform: chiA=%v chiB=%v", chiA, chiB)
	}
}

// The sum of any proper subset of shares must also be uniform (else the
// last balancing share would leak).
func TestSubsetSumUniform(t *testing.T) {
	f := ring(t, 128)
	s := MustNew(f, 4)
	rng := rand.New(rand.NewSource(13))
	counts := make([]int, 128)
	const draws = 128 * 200
	for i := 0; i < draws; i++ {
		sh := split(rng, s, 42)
		subset := f.Add(f.Add(sh[0], sh[1]), sh[3]) // 3 of 4 shares
		counts[subset]++
	}
	if chi := chiSquare(counts, draws); chi > 240 {
		t.Fatalf("3-share subset sum not uniform: chi=%v (127 dof)", chi)
	}
}

func chiSquare(counts []int, total int) float64 {
	expected := float64(total) / float64(len(counts))
	var chi float64
	for _, c := range counts {
		d := float64(c) - expected
		chi += d * d / expected
	}
	return chi
}

// Additive homomorphism: share-wise sums reconstruct the sum of secrets.
func TestHomomorphismQuick(t *testing.T) {
	f := ring(t, 1<<61)
	s := MustNew(f, 3)
	rng := rand.New(rand.NewSource(14))
	prop := func(a, b, c uint64) bool {
		secrets := []uint64{f.Reduce(a), f.Reduce(b), f.Reduce(c)}
		perParty := make([][]uint64, 3) // perParty[k][i] = share k of secret i
		for k := range perParty {
			perParty[k] = make([]uint64, len(secrets))
		}
		for i, v := range secrets {
			sh := split(rng, s, v)
			for k := range sh {
				perParty[k][i] = sh[k]
			}
		}
		// perParty rows are per-share-index vectors over secrets; summing
		// the rows element-wise gives, per secret, the sum of all its
		// shares = the secret.
		for i, v := range secrets {
			var summed uint64
			for k := range perParty {
				summed = f.Add(summed, perParty[k][i])
			}
			if summed != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Simulates the paper's Figure 3 numbers over Z_8 (the figure uses q=5):
// c=3, five providers with bits 0,1,1,0,0 — total frequency must
// reconstruct to 2.
func TestPaperFigure3Scenario(t *testing.T) {
	f := ring(t, 8)
	s := MustNew(f, 3)
	rng := rand.New(rand.NewSource(15))
	bits := []uint64{0, 1, 1, 0, 0}
	perShare := make([][]uint64, 3)
	for k := range perShare {
		perShare[k] = make([]uint64, len(bits))
	}
	for i, b := range bits {
		sh := split(rng, s, b)
		for k := range sh {
			perShare[k][i] = sh[k]
		}
	}
	// Coordinator k holds Σ_i perShare[k][i]; total of coordinators = Σ bits.
	var total uint64
	for k := 0; k < 3; k++ {
		total = f.Add(total, f.Sum(perShare[k]))
	}
	if total != 2 {
		t.Fatalf("reconstructed frequency = %d, want 2", total)
	}
}

func TestUniformityAcrossSecretValues(t *testing.T) {
	// Distribution of share[0] must not depend on the secret: compare
	// empirical means for two extreme secrets.
	f := ring(t, 1024)
	s := MustNew(f, 2)
	rng := rand.New(rand.NewSource(17))
	meanFor := func(secret uint64) float64 {
		var sum float64
		const n = 20000
		for i := 0; i < n; i++ {
			sum += float64(split(rng, s, secret)[0])
		}
		return sum / n
	}
	m0, m1 := meanFor(0), meanFor(1023)
	if math.Abs(m0-m1) > 25 { // both should be ≈511.5
		t.Fatalf("share mean depends on secret: %v vs %v", m0, m1)
	}
}
