package circuit

import "fmt"

// PureBetaParams configures the fully-unreduced baseline protocol circuit:
// the computation flow of Equation 8 evaluated entirely inside MPC, without
// the ε-PPI reordering. All m providers are parties; for every identity the
// circuit
//
//  1. aggregates the raw membership bits (popcount → freq),
//  2. computes the raw publishing probability in fixed point,
//     β*·2^F = (freq << 2F) / ((m − freq) · E),  E = (ε⁻¹ − 1)·2^F,
//     using a restoring divider (the "complex floating point computation"
//     the paper pushes out of the secure part),
//  3. mixes (coin < MixThreshold) and masks exactly like Reveal,
//
// and outputs per identity: hidden bit, then the masked fixed-point β*.
type PureBetaParams struct {
	// Providers is m.
	Providers int
	// Identities is the number of identities in this batch.
	Identities int
	// EpsFixed holds E_j = round((1/ε_j − 1)·2^FracBits) per identity;
	// E_j = 0 (ε_j = 1) marks the identity always-common.
	EpsFixed []uint64
	// FracBits is the fixed-point fraction width F.
	FracBits int
	// CoinBits is the mixing-coin precision.
	CoinBits int
	// MixThreshold is the public λ·2^CoinBits cutoff (< 2^CoinBits).
	MixThreshold uint64
}

// EpsToFixed converts a privacy degree ε ∈ (0, 1] to the fixed-point
// constant E = round((1/ε − 1)·2^fracBits) used by PureBeta.
func EpsToFixed(eps float64, fracBits int) uint64 {
	if eps <= 0 || eps > 1 {
		return 0
	}
	scaled := (1/eps - 1) * float64(uint64(1)<<uint(fracBits))
	return uint64(scaled + 0.5)
}

// PureBeta compiles the baseline circuit. Input order per provider i: for
// each identity j, one membership bit then CoinBits coin wires. Output
// order per identity: hidden bit, then
// width = BitsNeeded(m) + 2·FracBits masked β* bits.
func PureBeta(p PureBetaParams) (*Circuit, error) {
	if p.Providers < 2 || p.Identities < 1 || p.FracBits < 1 || p.CoinBits < 1 {
		return nil, fmt.Errorf("%w: %+v", ErrNoParams, p)
	}
	if len(p.EpsFixed) != p.Identities {
		return nil, fmt.Errorf("%w: %d ε constants for %d identities", ErrNoParams, len(p.EpsFixed), p.Identities)
	}
	if p.MixThreshold >= uint64(1)<<uint(p.CoinBits) {
		return nil, fmt.Errorf("%w: mix threshold %d needs more than %d coin bits", ErrNoParams, p.MixThreshold, p.CoinBits)
	}
	k := BitsNeeded(uint64(p.Providers))
	w := k + 2*p.FracBits
	for j, e := range p.EpsFixed {
		// denom = (m − freq)·E must fit in w bits for the division to be
		// exact; worst case (m − freq) = m.
		if e != 0 && BitsNeeded(uint64(p.Providers)*e) > w {
			return nil, fmt.Errorf("%w: ε constant %d (identity %d) overflows %d-bit divider", ErrNoParams, e, j, w)
		}
	}

	b := NewBuilder()
	bits := make([][]Wire, p.Identities)
	coins := make([][][]Wire, p.Identities)
	for j := range bits {
		bits[j] = make([]Wire, p.Providers)
		coins[j] = make([][]Wire, p.Providers)
	}
	for i := 0; i < p.Providers; i++ {
		for j := 0; j < p.Identities; j++ {
			bits[j][i] = b.Input(i)
			coins[j][i] = b.InputVec(i, p.CoinBits)
		}
	}
	one := uint64(1) << uint(p.FracBits) // fixed-point 1.0
	for j := 0; j < p.Identities; j++ {
		freq, err := b.PopCount(bits[j])
		if err != nil {
			return nil, err
		}
		freq = padTo(freq, k)
		anchor := bits[j][0]

		var beta []Wire // fixed-point β*, w bits
		var common Wire
		if p.EpsFixed[j] == 0 {
			// ε = 1: β* = ∞; always common.
			common = One
			beta = ConstVec(0, w)
		} else {
			// denomBase = m − freq  (k bits; never negative).
			denomBase, err := b.Sub(ConstVec(uint64(p.Providers), k), freq)
			if err != nil {
				return nil, err
			}
			denom, err := b.MulConst(denomBase, p.EpsFixed[j], w)
			if err != nil {
				return nil, err
			}
			numer := shiftLeft(freq, 2*p.FracBits, w)
			beta, err = b.Div(numer, denom)
			if err != nil {
				return nil, err
			}
			common, err = b.GreaterEq(beta, ConstVec(one, w))
			if err != nil {
				return nil, err
			}
		}

		coin := coins[j][0]
		for i := 1; i < p.Providers; i++ {
			next := make([]Wire, p.CoinBits)
			for bi := range next {
				next[bi] = b.XOR(coin[bi], coins[j][i][bi])
			}
			coin = next
		}
		mix, err := b.LessThan(coin, ConstVec(p.MixThreshold, p.CoinBits))
		if err != nil {
			return nil, err
		}
		hidden := b.OR(common, mix)
		if err := b.Output(b.Materialize(hidden, anchor)); err != nil {
			return nil, err
		}
		notHidden := b.NOT(b.Materialize(hidden, anchor))
		for _, bw := range beta {
			if err := b.Output(b.Materialize(b.AND(bw, notHidden), anchor)); err != nil {
				return nil, err
			}
		}
	}
	return b.Build()
}
