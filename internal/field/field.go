// Package field describes the ring Z_q, q = 2^w, over which the ε-PPI
// secret-sharing and secure-sum protocols share identity frequencies.
//
// Additive (c, c) sharing is perfectly secret over any finite group, so q
// need not be prime; a power of two makes reduction a mask, in the packed
// SecSumShare kernels and in the boolean circuits alike. q must exceed any
// sum the protocols reconstruct (a frequency is at most the provider count
// m). Elements are represented as uint64 values in [0, q).
package field

import "fmt"

// Field describes arithmetic modulo a fixed power of two q.
type Field struct {
	q uint64
}

// NewAdditive returns the ring Z_q. It refuses a q that is not a power of
// two at least 2.
func NewAdditive(q uint64) (Field, error) {
	if q < 2 || q&(q-1) != 0 {
		return Field{}, fmt.Errorf("field: modulus %d is not a power of two >= 2", q)
	}
	return Field{q: q}, nil
}

// Modulus returns q.
func (f Field) Modulus() uint64 { return f.q }

// Reduce maps an arbitrary uint64 into [0, q).
func (f Field) Reduce(x uint64) uint64 { return x & (f.q - 1) }

// Add returns (a + b) mod q.
func (f Field) Add(a, b uint64) uint64 { return (a + b) & (f.q - 1) }

// Sub returns (a − b) mod q.
func (f Field) Sub(a, b uint64) uint64 { return (a - b) & (f.q - 1) }

// Sum returns the canonical sum of xs mod q.
func (f Field) Sum(xs []uint64) uint64 {
	var acc uint64
	for _, x := range xs {
		acc += x
	}
	return f.Reduce(acc)
}
