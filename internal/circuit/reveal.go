package circuit

import "fmt"

// This file compiles the second secure stage of ε-PPI construction: the
// identity-mixing "reveal or mask" computation (Equation 6 of the paper).
//
// After CountBelow has produced the public common-identity count (and hence
// the public mixing rate λ), each identity's frequency must either be
// *opened* (non-common, not selected for mixing — its β* is then computed
// in the clear) or *masked* (common, or mixed in with probability λ — its
// β is forced to 1). The decision bit must be computed on secret data:
// opening σ first and deciding afterwards would leak exactly the common
// identities that the mixing is meant to hide.
//
// Per identity j the circuit computes:
//
//	freq_j   = Σ_k share_k(j)           mod 2^ShareBits
//	common_j = freq_j ≥ t_j             (public per-identity threshold)
//	coin_j   = ⊕_k coinBits_k(j)        (jointly uniform CoinBits-bit value)
//	mix_j    = coin_j < MixThreshold    (public; MixThreshold ≈ λ·2^CoinBits)
//	hidden_j = common_j ∨ mix_j
//
// and outputs hidden_j followed by freq_j ∧ ¬hidden_j bit-wise (the masked
// frequency: the true frequency when revealed, zero when hidden).

// RevealParams configures the MPC-reduced reveal circuit (parties are the
// c coordinators holding additive shares).
type RevealParams struct {
	// Parties is c, the number of coordinators.
	Parties int
	// Identities is the number of identities in this batch.
	Identities int
	// ShareBits is the share width (group Z_{2^ShareBits}).
	ShareBits int
	// Thresholds holds the public per-identity common thresholds t_j >= 1.
	Thresholds []uint64
	// CoinBits is the precision of the mixing coin.
	CoinBits int
	// MixThreshold is the public λ·2^CoinBits cutoff; 0 disables mixing and
	// it must be < 2^CoinBits (clamp λ upstream).
	MixThreshold uint64
}

// Reveal compiles the MPC-reduced reveal circuit. Input order per party k:
// for each identity j, ShareBits wires of share s(k,j), then CoinBits wires
// of k's coin contribution for j. Output order per identity: hidden bit,
// then ShareBits masked-frequency bits.
func Reveal(p RevealParams) (*Circuit, error) {
	if p.Parties < 2 || p.Identities < 1 || p.ShareBits < 1 || p.CoinBits < 1 {
		return nil, fmt.Errorf("%w: %+v", ErrNoParams, p)
	}
	if len(p.Thresholds) != p.Identities {
		return nil, fmt.Errorf("%w: %d thresholds for %d identities", ErrNoParams, len(p.Thresholds), p.Identities)
	}
	if p.MixThreshold >= uint64(1)<<uint(p.CoinBits) {
		return nil, fmt.Errorf("%w: mix threshold %d needs more than %d coin bits", ErrNoParams, p.MixThreshold, p.CoinBits)
	}
	for j, t := range p.Thresholds {
		if t == 0 {
			return nil, fmt.Errorf("%w: zero threshold (identity %d)", ErrNoParams, j)
		}
		if BitsNeeded(t) > p.ShareBits {
			return nil, fmt.Errorf("%w: threshold %d (identity %d) exceeds %d bits", ErrNoParams, t, j, p.ShareBits)
		}
	}
	b := NewBuilder()
	type partyInputs struct {
		shares [][]Wire // [identity][bit]
		coins  [][]Wire // [identity][bit]
	}
	parties := make([]partyInputs, p.Parties)
	for k := range parties {
		parties[k].shares = make([][]Wire, p.Identities)
		parties[k].coins = make([][]Wire, p.Identities)
		for j := 0; j < p.Identities; j++ {
			parties[k].shares[j] = b.InputVec(k, p.ShareBits)
			parties[k].coins[j] = b.InputVec(k, p.CoinBits)
		}
	}
	for j := 0; j < p.Identities; j++ {
		vecs := make([][]Wire, p.Parties)
		for k := range vecs {
			vecs[k] = parties[k].shares[j]
		}
		freq, err := b.SumMod(vecs)
		if err != nil {
			return nil, err
		}
		common, err := b.GreaterEq(freq, ConstVec(p.Thresholds[j], p.ShareBits))
		if err != nil {
			return nil, err
		}
		coin := parties[0].coins[j]
		for k := 1; k < p.Parties; k++ {
			next := make([]Wire, p.CoinBits)
			for bi := range next {
				next[bi] = b.XOR(coin[bi], parties[k].coins[j][bi])
			}
			coin = next
		}
		mix, err := b.LessThan(coin, ConstVec(p.MixThreshold, p.CoinBits))
		if err != nil {
			return nil, err
		}
		hidden := b.OR(common, mix)
		if err := b.Output(hidden); err != nil {
			return nil, err
		}
		notHidden := b.NOT(hidden)
		for _, fw := range freq {
			masked := b.AND(fw, notHidden)
			if masked.IsConst() {
				// A share-sum bit can fold to a constant only if every share
				// bit folded, which inputs never do; guard regardless.
				return nil, fmt.Errorf("%w: degenerate masked output", ErrNoParams)
			}
			if err := b.Output(masked); err != nil {
				return nil, err
			}
		}
	}
	return b.Build()
}
