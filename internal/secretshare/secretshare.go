// Package secretshare implements the additive (c, c) secret-sharing scheme
// over the ring Z_q, q = 2^w (internal/field), that underlies the ε-PPI
// SecSumShare protocol (Theorem 4.1 of the paper).
//
// A secret v ∈ Z_q is split into c shares whose sum is v mod q; the first
// c−1 shares are uniformly random, so any subset of at most c−1 shares is
// statistically independent of v (perfect secrecy). The scheme is additively
// homomorphic: summing the k-th shares of many secrets yields the k-th share
// of the sum, which is exactly what lets SecSumShare aggregate identity
// frequencies without ever reconstructing an individual provider's bit.
// SecSumShare draws the random shares itself, as keyed expansions
// (internal/secsum); a Scheme fixes Z_q and c and reconstructs.
package secretshare

import (
	"errors"
	"fmt"

	"repro/internal/field"
)

var (
	// ErrBadShareCount reports c < 2; a single share would be the secret.
	ErrBadShareCount = errors.New("secretshare: share count c must be >= 2")
	// ErrEmpty reports an empty share set passed to Combine.
	ErrEmpty = errors.New("secretshare: no shares to combine")
)

// Scheme is a (c, c) additive sharing scheme over Z_q.
type Scheme struct {
	f field.Field
	c int
}

// New returns a scheme producing c shares over the ring f.
func New(f field.Field, c int) (Scheme, error) {
	if c < 2 {
		return Scheme{}, fmt.Errorf("%w: %d", ErrBadShareCount, c)
	}
	return Scheme{f: f, c: c}, nil
}

// MustNew is New but panics on invalid c; for tests and literals.
func MustNew(f field.Field, c int) Scheme {
	s, err := New(f, c)
	if err != nil {
		panic(err)
	}
	return s
}

// Field returns the underlying ring Z_q.
func (s Scheme) Field() field.Field { return s.f }

// Shares returns c.
func (s Scheme) Shares() int { return s.c }

// Combine reconstructs the secret from exactly the full share set.
func (s Scheme) Combine(shares []uint64) (uint64, error) {
	if len(shares) == 0 {
		return 0, ErrEmpty
	}
	if len(shares) != s.c {
		return 0, fmt.Errorf("secretshare: got %d shares, need %d", len(shares), s.c)
	}
	return s.f.Sum(shares), nil
}
