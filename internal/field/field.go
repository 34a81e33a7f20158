// Package field implements arithmetic in the prime field Z_q used by the
// ε-PPI secret-sharing and secure-sum protocols.
//
// The modulus q must be a prime larger than any secret the protocols sum;
// for ε-PPI the secrets are identity frequencies bounded by the number of
// providers m, so any prime q > m suffices. Elements are represented as
// uint64 values in [0, q).
package field

import (
	"errors"
	"fmt"
)

// DefaultModulus is a 61-bit Mersenne prime (2^61 - 1). It is large enough
// for any realistic provider count while keeping products of two elements
// inside the 128-bit range handled by mulmod.
const DefaultModulus uint64 = (1 << 61) - 1

// ErrNotPrime reports that a requested modulus failed the primality check.
var ErrNotPrime = errors.New("field: modulus is not prime")

// Field describes arithmetic modulo a fixed prime q.
type Field struct {
	q uint64
}

// New returns a Field with modulus q. It returns ErrNotPrime if q is not a
// prime number, because secrecy of the additive sharing relies on Z_q being
// a field (every nonzero element invertible, uniform distribution closed
// under addition).
func New(q uint64) (Field, error) {
	if q < 2 || !IsPrime(q) {
		return Field{}, fmt.Errorf("%w: %d", ErrNotPrime, q)
	}
	return Field{q: q}, nil
}

// NewAdditive returns a Field over an arbitrary modulus q >= 2, for use as
// an *additive group* Z_q only. Additive secret sharing is perfectly secret
// over any finite abelian group, so the SecSumShare/GMW pipeline uses
// q = 2^k (modular reduction is free in boolean circuits). Multiplicative
// operations (Inv) are not meaningful for composite q and must not be used
// on fields constructed this way.
func NewAdditive(q uint64) (Field, error) {
	if q < 2 {
		return Field{}, fmt.Errorf("field: additive modulus %d must be >= 2", q)
	}
	return Field{q: q}, nil
}

// MustNew is like New but panics on an invalid modulus. It is intended for
// package-level constants and tests where the modulus is a verified literal.
func MustNew(q uint64) Field {
	f, err := New(q)
	if err != nil {
		panic(err)
	}
	return f
}

// Default returns the field with DefaultModulus.
func Default() Field {
	return Field{q: DefaultModulus}
}

// Modulus returns q.
func (f Field) Modulus() uint64 { return f.q }

// Valid reports whether x is a canonical representative in [0, q).
func (f Field) Valid(x uint64) bool { return x < f.q }

// Reduce maps an arbitrary uint64 into [0, q).
func (f Field) Reduce(x uint64) uint64 { return x % f.q }

// Add returns (a + b) mod q. Inputs must be canonical.
func (f Field) Add(a, b uint64) uint64 {
	// a, b < q <= 2^63 so a+b cannot overflow uint64 for q <= 2^63.
	s := a + b
	if s >= f.q || s < a {
		s -= f.q
	}
	return s
}

// Sub returns (a - b) mod q. Inputs must be canonical.
func (f Field) Sub(a, b uint64) uint64 {
	if a >= b {
		return a - b
	}
	return a + (f.q - b)
}

// Mul returns (a * b) mod q using 128-bit intermediate arithmetic.
func (f Field) Mul(a, b uint64) uint64 {
	return mulmod(a, b, f.q)
}

// Pow returns a^e mod q by square-and-multiply.
func (f Field) Pow(a, e uint64) uint64 {
	result := uint64(1 % f.q)
	base := a % f.q
	for e > 0 {
		if e&1 == 1 {
			result = f.Mul(result, base)
		}
		base = f.Mul(base, base)
		e >>= 1
	}
	return result
}

// Inv returns the multiplicative inverse of a (a != 0) via Fermat's little
// theorem: a^(q-2) mod q.
func (f Field) Inv(a uint64) (uint64, error) {
	if a%f.q == 0 {
		return 0, errors.New("field: zero has no inverse")
	}
	return f.Pow(a, f.q-2), nil
}

// Sum returns the canonical sum of xs mod q.
func (f Field) Sum(xs []uint64) uint64 {
	var acc uint64
	for _, x := range xs {
		acc = f.Add(acc, f.Reduce(x))
	}
	return acc
}

// mulmod computes (a*b) mod m without overflow using math/bits-free 128-bit
// decomposition (schoolbook on 32-bit halves).
func mulmod(a, b, m uint64) uint64 {
	a %= m
	b %= m
	var result uint64
	for b > 0 {
		if b&1 == 1 {
			result = addmod(result, a, m)
		}
		a = addmod(a, a, m)
		b >>= 1
	}
	return result
}

func addmod(a, b, m uint64) uint64 {
	// a, b < m <= 2^63-ish: detect wrap explicitly to stay safe for any m.
	s := a + b
	if s < a || s >= m {
		s -= m
	}
	return s
}

// IsPrime reports whether n is prime using a deterministic Miller-Rabin
// test with witness set valid for all 64-bit integers.
func IsPrime(n uint64) bool {
	if n < 2 {
		return false
	}
	for _, p := range []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		if n == p {
			return true
		}
		if n%p == 0 {
			return false
		}
	}
	// Write n-1 = d * 2^r.
	d := n - 1
	r := 0
	for d&1 == 0 {
		d >>= 1
		r++
	}
	// Deterministic witnesses for n < 2^64 (Sinclair's set).
	for _, a := range []uint64{2, 325, 9375, 28178, 450775, 9780504, 1795265022} {
		if !millerRabinWitness(n, a%n, d, r) {
			return false
		}
	}
	return true
}

func millerRabinWitness(n, a, d uint64, r int) bool {
	if a == 0 {
		return true
	}
	x := powmod(a, d, n)
	if x == 1 || x == n-1 {
		return true
	}
	for i := 0; i < r-1; i++ {
		x = mulmod(x, x, n)
		if x == n-1 {
			return true
		}
	}
	return false
}

func powmod(a, e, m uint64) uint64 {
	result := uint64(1 % m)
	a %= m
	for e > 0 {
		if e&1 == 1 {
			result = mulmod(result, a, m)
		}
		a = mulmod(a, a, m)
		e >>= 1
	}
	return result
}

// NextPrime returns the smallest prime >= n. It is used to pick a protocol
// modulus q > m (number of providers) at construction time.
func NextPrime(n uint64) uint64 {
	if n <= 2 {
		return 2
	}
	if n&1 == 0 {
		n++
	}
	for !IsPrime(n) {
		n += 2
	}
	return n
}
