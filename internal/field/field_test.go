package field

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustAdditive(t *testing.T, q uint64) Field {
	t.Helper()
	f, err := NewAdditive(q)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// NewAdditive builds Z_q for a power of two q and refuses every other q:
// the packed kernels and the circuits reduce by masking.
func TestNewAdditiveRequiresPowerOfTwo(t *testing.T) {
	for _, q := range []uint64{0, 1, 3, 6, 10, 11, 1<<40 + 1} {
		if _, err := NewAdditive(q); err == nil {
			t.Errorf("NewAdditive(%d) accepted", q)
		}
	}
	for _, q := range []uint64{2, 8, 1 << 40, 1 << 63} {
		if f, err := NewAdditive(q); err != nil || f.Modulus() != q {
			t.Errorf("NewAdditive(%d) = %d, %v", q, f.Modulus(), err)
		}
	}
}

func TestAddSubNeg(t *testing.T) {
	f := mustAdditive(t, 128)
	tests := []struct {
		a, b, sum, diff uint64
	}{
		{0, 0, 0, 0},
		{1, 127, 0, 2},
		{64, 64, 0, 0},
		{127, 127, 126, 0},
		{3, 5, 8, 126},
	}
	for _, tt := range tests {
		if got := f.Add(tt.a, tt.b); got != tt.sum {
			t.Errorf("Add(%d,%d) = %d, want %d", tt.a, tt.b, got, tt.sum)
		}
		if got := f.Sub(tt.a, tt.b); got != tt.diff {
			t.Errorf("Sub(%d,%d) = %d, want %d", tt.a, tt.b, got, tt.diff)
		}
	}
	for a := uint64(0); a < 128; a++ {
		if got := f.Add(a, f.Sub(0, a)); got != 0 {
			t.Fatalf("a + (-a) = %d for a=%d, want 0", got, a)
		}
	}
}

func TestAddNoOverflowNearMax(t *testing.T) {
	// Largest power-of-two ring: sums of elements pass 2^64 and must still
	// come back reduced.
	f := mustAdditive(t, 1<<63)
	a, b := f.Modulus()-1, f.Modulus()-2
	want := f.Modulus() - 3 // (q-1)+(q-2) = 2q-3 ≡ q-3
	if got := f.Add(a, b); got != want {
		t.Fatalf("Add near max = %d, want %d", got, want)
	}
	if got := f.Sub(0, 1); got != f.Modulus()-1 {
		t.Fatalf("Sub(0,1) = %d, want %d", got, f.Modulus()-1)
	}
}

func TestSum(t *testing.T) {
	f := mustAdditive(t, 16)
	xs := []uint64{15, 15, 15, 5, 100}
	want := (15 + 15 + 15 + 5 + 100) % 16
	if got := f.Sum(xs); got != uint64(want) {
		t.Fatalf("Sum = %d, want %d", got, want)
	}
	if got := f.Sum(nil); got != 0 {
		t.Fatalf("Sum(nil) = %d, want 0", got)
	}
}

// Property: Add is commutative and associative, Sub undoes it, and Reduce
// is the residue mod q.
func TestFieldAxiomsQuick(t *testing.T) {
	f := mustAdditive(t, 1<<61)
	rng := rand.New(rand.NewSource(7))
	gen := func() uint64 { return f.Reduce(rng.Uint64()) }

	commut := func(seed int64) bool {
		a, b := gen(), gen()
		return f.Add(a, b) == f.Add(b, a)
	}
	if err := quick.Check(commut, nil); err != nil {
		t.Errorf("commutativity: %v", err)
	}

	assoc := func(seed int64) bool {
		a, b, c := gen(), gen(), gen()
		return f.Add(f.Add(a, b), c) == f.Add(a, f.Add(b, c))
	}
	if err := quick.Check(assoc, nil); err != nil {
		t.Errorf("associativity: %v", err)
	}

	subInverse := func(seed int64) bool {
		a, b := gen(), gen()
		return f.Add(f.Sub(a, b), b) == a
	}
	if err := quick.Check(subInverse, nil); err != nil {
		t.Errorf("sub/add inverse: %v", err)
	}

	residue := func(x uint64) bool { return f.Reduce(x) == x%f.Modulus() }
	if err := quick.Check(residue, nil); err != nil {
		t.Errorf("reduce: %v", err)
	}
}
