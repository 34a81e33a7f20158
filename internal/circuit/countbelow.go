package circuit

import (
	"errors"
	"fmt"
)

// This file compiles the CountBelow program (Algorithm 2 of the ε-PPI
// paper) to a boolean circuit, playing the role of FairplayMP's SFDL
// compiler. CountBelow is the ε-PPI (MPC-reduced) form: the parties are
// the c coordinators; party k supplies, per identity j, its k-bit share
// s(k, j) of the frequency. The circuit reconstructs each frequency as
// Σ_k s(k,j) mod 2^width and compares it against the identity's public
// threshold, then outputs only the count of identities at or above
// threshold (the common-identity count that Equation 7 needs). The
// baseline without SecSumShare, whose size grows with m, is PureBeta.
//
// Note on naming: the paper's Algorithm 2 counts elements *below* the
// threshold but its Algorithm 1 consumes Σ 1{σ ≥ σ'}; the two differ only
// by n − count. We follow Algorithm 1 and output the ≥-count.

// ErrNoParams reports invalid compiler parameters.
var ErrNoParams = errors.New("circuit: invalid CountBelow parameters")

// CountBelowParams configures the MPC-reduced CountBelow compilation.
type CountBelowParams struct {
	// Parties is c, the number of coordinators (each holding one share
	// vector).
	Parties int
	// Identities is the number of identities processed by the circuit.
	Identities int
	// ShareBits is the width of each share (the group is Z_{2^ShareBits});
	// it must satisfy 2^ShareBits > m so frequencies don't wrap.
	ShareBits int
	// Thresholds holds the public per-identity thresholds t_j = σ'_j · m,
	// one per identity.
	Thresholds []uint64
}

// CountBelow compiles the MPC-reduced CountBelow circuit.
func CountBelow(p CountBelowParams) (*Circuit, error) {
	if p.Parties < 2 || p.Identities < 1 || p.ShareBits < 1 {
		return nil, fmt.Errorf("%w: %+v", ErrNoParams, p)
	}
	if len(p.Thresholds) != p.Identities {
		return nil, fmt.Errorf("%w: %d thresholds for %d identities", ErrNoParams, len(p.Thresholds), p.Identities)
	}
	for j, t := range p.Thresholds {
		if t == 0 {
			// A zero threshold marks every identity common and degenerates
			// the whole comparator to a constant; callers must clamp to 1.
			return nil, fmt.Errorf("%w: zero threshold (identity %d)", ErrNoParams, j)
		}
		if BitsNeeded(t) > p.ShareBits {
			return nil, fmt.Errorf("%w: threshold %d (identity %d) exceeds %d bits", ErrNoParams, t, j, p.ShareBits)
		}
	}
	b := NewBuilder()
	// Party k's inputs: identities × ShareBits wires, identity-major.
	shares := make([][][]Wire, p.Parties) // [party][identity][bit]
	for k := 0; k < p.Parties; k++ {
		shares[k] = make([][]Wire, p.Identities)
		for j := 0; j < p.Identities; j++ {
			shares[k][j] = b.InputVec(k, p.ShareBits)
		}
	}
	geq := make([]Wire, 0, p.Identities)
	for j := 0; j < p.Identities; j++ {
		vecs := make([][]Wire, p.Parties)
		for k := 0; k < p.Parties; k++ {
			vecs[k] = shares[k][j]
		}
		freq, err := b.SumMod(vecs) // mod 2^ShareBits reconstruction
		if err != nil {
			return nil, err
		}
		ge, err := b.GreaterEq(freq, ConstVec(p.Thresholds[j], p.ShareBits))
		if err != nil {
			return nil, err
		}
		geq = append(geq, ge)
	}
	count, err := b.PopCount(geq)
	if err != nil {
		return nil, err
	}
	for _, w := range count {
		if err := b.Output(w); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

func padTo(v []Wire, width int) []Wire {
	for len(v) < width {
		v = append(v, Zero)
	}
	return v[:width]
}
