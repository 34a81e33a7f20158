package field

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewRejectsComposite(t *testing.T) {
	tests := []struct {
		name    string
		q       uint64
		wantErr bool
	}{
		{name: "zero", q: 0, wantErr: true},
		{name: "one", q: 1, wantErr: true},
		{name: "two", q: 2, wantErr: false},
		{name: "small prime", q: 5, wantErr: false},
		{name: "small composite", q: 9, wantErr: true},
		{name: "even composite", q: 1 << 20, wantErr: true},
		{name: "mersenne 61", q: (1 << 61) - 1, wantErr: false},
		{name: "carmichael 561", q: 561, wantErr: true},
		{name: "carmichael 41041", q: 41041, wantErr: true},
		{name: "large prime", q: 18446744073709551557, wantErr: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.q)
			if gotErr := err != nil; gotErr != tt.wantErr {
				t.Fatalf("New(%d) error = %v, wantErr %v", tt.q, err, tt.wantErr)
			}
		})
	}
}

func TestMustNewPanicsOnComposite(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(10) did not panic")
		}
	}()
	MustNew(10)
}

func TestAddSubNeg(t *testing.T) {
	f := MustNew(97)
	tests := []struct {
		a, b, sum, diff uint64
	}{
		{0, 0, 0, 0},
		{1, 96, 0, 2},
		{50, 50, 3, 0},
		{96, 96, 95, 0},
		{3, 5, 8, 95},
	}
	for _, tt := range tests {
		if got := f.Add(tt.a, tt.b); got != tt.sum {
			t.Errorf("Add(%d,%d) = %d, want %d", tt.a, tt.b, got, tt.sum)
		}
		if got := f.Sub(tt.a, tt.b); got != tt.diff {
			t.Errorf("Sub(%d,%d) = %d, want %d", tt.a, tt.b, got, tt.diff)
		}
	}
	for a := uint64(0); a < 97; a++ {
		if got := f.Add(a, f.Sub(0, a)); got != 0 {
			t.Fatalf("a + (-a) = %d for a=%d, want 0", got, a)
		}
	}
}

func TestAddNoOverflowNearMax(t *testing.T) {
	// Largest 64-bit prime: additions of canonical elements must not wrap.
	f := MustNew(18446744073709551557)
	a, b := f.Modulus()-1, f.Modulus()-2
	want := f.Modulus() - 3 // (q-1)+(q-2) = 2q-3 ≡ q-3
	if got := f.Add(a, b); got != want {
		t.Fatalf("Add near max = %d, want %d", got, want)
	}
	if got := f.Sub(0, 1); got != f.Modulus()-1 {
		t.Fatalf("Sub(0,1) = %d, want %d", got, f.Modulus()-1)
	}
}

func TestMulMatchesNaive(t *testing.T) {
	f := MustNew(101)
	for a := uint64(0); a < 101; a += 7 {
		for b := uint64(0); b < 101; b += 5 {
			want := (a * b) % 101
			if got := f.Mul(a, b); got != want {
				t.Fatalf("Mul(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestMulLargeOperands(t *testing.T) {
	f := Default()
	q := f.Modulus()
	// (q-1)^2 mod q == 1 because q-1 ≡ -1.
	if got := f.Mul(q-1, q-1); got != 1 {
		t.Fatalf("Mul(q-1,q-1) = %d, want 1", got)
	}
}

func TestPowInv(t *testing.T) {
	f := MustNew(101)
	if got := f.Pow(2, 10); got != 1024%101 {
		t.Fatalf("Pow(2,10) = %d, want %d", got, 1024%101)
	}
	if got := f.Pow(7, 0); got != 1 {
		t.Fatalf("Pow(7,0) = %d, want 1", got)
	}
	for a := uint64(1); a < 101; a++ {
		inv, err := f.Inv(a)
		if err != nil {
			t.Fatalf("Inv(%d): %v", a, err)
		}
		if got := f.Mul(a, inv); got != 1 {
			t.Fatalf("a * a^-1 = %d for a=%d, want 1", got, a)
		}
	}
	if _, err := f.Inv(0); err == nil {
		t.Fatal("Inv(0) succeeded, want error")
	}
}

func TestSum(t *testing.T) {
	f := MustNew(13)
	xs := []uint64{12, 12, 12, 5, 100}
	want := (12 + 12 + 12 + 5 + 100) % 13
	if got := f.Sum(xs); got != uint64(want) {
		t.Fatalf("Sum = %d, want %d", got, want)
	}
	if got := f.Sum(nil); got != 0 {
		t.Fatalf("Sum(nil) = %d, want 0", got)
	}
}

func TestIsPrimeSmall(t *testing.T) {
	primes := map[uint64]bool{
		2: true, 3: true, 4: false, 5: true, 6: false, 7: true, 8: false,
		9: false, 25: false, 97: true, 561: false, 7919: true,
	}
	for n, want := range primes {
		if got := IsPrime(n); got != want {
			t.Errorf("IsPrime(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestNextPrime(t *testing.T) {
	tests := []struct{ n, want uint64 }{
		{0, 2}, {2, 2}, {3, 3}, {4, 5}, {8, 11}, {10000, 10007}, {25000, 25013},
	}
	for _, tt := range tests {
		if got := NextPrime(tt.n); got != tt.want {
			t.Errorf("NextPrime(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

// Property: Add is commutative and associative; Mul distributes over Add.
func TestFieldAxiomsQuick(t *testing.T) {
	f := Default()
	rng := rand.New(rand.NewSource(7))
	gen := func() uint64 { return f.Reduce(rng.Uint64()) }

	commut := func(seed int64) bool {
		a, b := gen(), gen()
		return f.Add(a, b) == f.Add(b, a) && f.Mul(a, b) == f.Mul(b, a)
	}
	if err := quick.Check(commut, nil); err != nil {
		t.Errorf("commutativity: %v", err)
	}

	assoc := func(seed int64) bool {
		a, b, c := gen(), gen(), gen()
		return f.Add(f.Add(a, b), c) == f.Add(a, f.Add(b, c)) &&
			f.Mul(f.Mul(a, b), c) == f.Mul(a, f.Mul(b, c))
	}
	if err := quick.Check(assoc, nil); err != nil {
		t.Errorf("associativity: %v", err)
	}

	distrib := func(seed int64) bool {
		a, b, c := gen(), gen(), gen()
		return f.Mul(a, f.Add(b, c)) == f.Add(f.Mul(a, b), f.Mul(a, c))
	}
	if err := quick.Check(distrib, nil); err != nil {
		t.Errorf("distributivity: %v", err)
	}

	subInverse := func(seed int64) bool {
		a, b := gen(), gen()
		return f.Add(f.Sub(a, b), b) == a
	}
	if err := quick.Check(subInverse, nil); err != nil {
		t.Errorf("sub/add inverse: %v", err)
	}
}

func BenchmarkMul(b *testing.B) {
	f := Default()
	x := uint64(0x123456789abcdef)
	for i := 0; i < b.N; i++ {
		x = f.Mul(x, x|1)
	}
	_ = x
}
