package circuit

import "fmt"

// This file compiles the *slice* variants of CountBelow and Reveal: the
// per-identity circuits the bit-sliced GMW evaluator runs, one independent
// identity per instance lane.
//
// CountBelow and Reveal bake each identity's public threshold t_j into the
// comparator as a constant, so every identity set needs its own circuit.
// The bit-sliced evaluator runs every identity through ONE circuit, so the
// circuit must be threshold-free. The trick is to compare in a group one
// bit wider than the frequencies: with shares in Z_{2^W},
// W ≥ BitsNeeded(m+1)+1, both freq ≤ m and t_j fit in W−1 bits, so
//
//	diff = freq + (2^W − t_j)  mod 2^W  =  freq − t_j  mod 2^W
//
// has its top bit clear exactly when freq ≥ t_j. The identity-specific
// offset (2^W − t_j) enters as *data*, not circuit structure — folded into
// party 0's additive share before slicing (CountBelowSlice), or fed as a
// party-0 private input vector when the raw frequency is also needed
// downstream (RevealSlice). One compile then serves every identity.
//
// CountBelowSlice deliberately has no opening step: revealing per-identity
// ≥-bits would leak exactly the common set that ε-PPI hides. The run keeps
// the output *shared*; SliceCount is the count opener that XOR-reconstructs
// kept values inside MPC and sums them. The secure pipeline runs it twice:
// over the kept ≥-bits, one lane per 64th of the identities, with the
// counts kept shared, then in one lane over those 64 kept counts, opening
// only the total.

// SliceParams configures CountBelowSlice and RevealSlice.
type SliceParams struct {
	// Parties is c, the number of coordinators.
	Parties int
	// ShareBits is the widened share width W: shares live in Z_{2^W} and
	// both m and every threshold must fit in W−1 bits (the sign slack the
	// folded comparison needs).
	ShareBits int
	// CoinBits is the mixing-coin precision (RevealSlice only).
	CoinBits int
	// MixThreshold is the public λ·2^CoinBits cutoff (< 2^CoinBits;
	// RevealSlice only).
	MixThreshold uint64
	// Arithmetic named an adder style.
	//
	// Deprecated: ignored; kept because bench/ sets it.
	Arithmetic Style
}

// Style is the type of the ignored Arithmetic fields of SliceParams and
// core.Config; every circuit uses ripple adders.
//
// Deprecated: ignored; kept because bench/ sets it.
type Style int

// StylePrefix named the parallel-prefix adder style.
//
// Deprecated: ignored; kept because bench/ sets it.
const StylePrefix Style = 1

// CountBelowSlice compiles the threshold-free one-identity comparator.
// Party k inputs its W-bit share; party 0's share must have the folded
// offset (2^W − t) already added modulo 2^W. The single output wire is
// the ≥-threshold bit and MUST be evaluated shares-kept (gmw.KeepShared):
// opening it would reveal whether this identity is common.
func CountBelowSlice(p SliceParams) (*Circuit, error) {
	if p.Parties < 2 || p.ShareBits < 2 {
		return nil, fmt.Errorf("%w: %+v", ErrNoParams, p)
	}
	b := NewBuilder()
	vecs := make([][]Wire, p.Parties)
	for k := range vecs {
		vecs[k] = b.InputVec(k, p.ShareBits)
	}
	diff, err := b.SumMod(vecs) // = freq − t mod 2^W, offset pre-folded
	if err != nil {
		return nil, err
	}
	ge := b.NOT(diff[p.ShareBits-1]) // top bit clear ⟺ freq ≥ t
	if err := b.Output(ge); err != nil {
		return nil, err
	}
	return b.Build()
}

// SliceCountParams configures the count opener.
type SliceCountParams struct {
	// Parties is c, the number of coordinators.
	Parties int
	// Slots is the number of kept-shared values counted per instance.
	Slots int
	// Width is the bits per slot: 1 for kept ≥-bits, wider for kept
	// counts.
	Width int
}

// SliceCount compiles the count opener: party k inputs its XOR shares of
// Slots values of Width bits each (slot by slot, least significant bit
// first), as a shares-kept run produces them. The circuit reconstructs
// each value by XOR and outputs their exact sum (Builder.Sum), which a run
// may open or keep shared.
func SliceCount(p SliceCountParams) (*Circuit, error) {
	if p.Parties < 2 || p.Slots < 1 || p.Width < 1 {
		return nil, fmt.Errorf("%w: %+v", ErrNoParams, p)
	}
	b := NewBuilder()
	shares := make([][]Wire, p.Parties) // [party][slot·Width + bit]
	for k := range shares {
		shares[k] = b.InputVec(k, p.Slots*p.Width)
	}
	vals := make([][]Wire, p.Slots)
	for s := range vals {
		vals[s] = make([]Wire, p.Width)
		for i := range vals[s] {
			v := shares[0][s*p.Width+i]
			for k := 1; k < p.Parties; k++ {
				v = b.XOR(v, shares[k][s*p.Width+i])
			}
			vals[s][i] = v
		}
	}
	count, err := b.Sum(vals)
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

// RevealSlice compiles the threshold-free one-identity reveal-or-mask
// circuit (Equation 6 semantics, one identity per lane). Input order
// per party k: W share bits, then CoinBits coin bits; party 0 additionally
// ends with the W-bit folded offset (2^W − t) as a private input — the raw
// frequency must survive for the masked output, so the offset cannot be
// pre-folded into the share as CountBelowSlice does. Output order: hidden
// bit, then W masked-frequency bits (freq when revealed, zero when hidden).
func RevealSlice(p SliceParams) (*Circuit, error) {
	if p.Parties < 2 || p.ShareBits < 2 || p.CoinBits < 1 {
		return nil, fmt.Errorf("%w: %+v", ErrNoParams, p)
	}
	if p.MixThreshold >= uint64(1)<<uint(p.CoinBits) {
		return nil, fmt.Errorf("%w: mix threshold %d needs more than %d coin bits", ErrNoParams, p.MixThreshold, p.CoinBits)
	}
	b := NewBuilder()
	shares := make([][]Wire, p.Parties)
	coins := make([][]Wire, p.Parties)
	for k := 0; k < p.Parties; k++ {
		shares[k] = b.InputVec(k, p.ShareBits)
		coins[k] = b.InputVec(k, p.CoinBits)
	}
	offset := b.InputVec(0, p.ShareBits)
	freq, err := b.SumMod(shares)
	if err != nil {
		return nil, err
	}
	diff, err := b.Add(freq, offset) // = freq − t mod 2^W
	if err != nil {
		return nil, err
	}
	common := b.NOT(diff[p.ShareBits-1])
	coin := coins[0]
	for k := 1; k < p.Parties; k++ {
		next := make([]Wire, p.CoinBits)
		for bi := range next {
			next[bi] = b.XOR(coin[bi], coins[k][bi])
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
			// A share-sum bit can fold to a constant only if every share bit
			// folded, which inputs never do; guard regardless.
			return nil, fmt.Errorf("%w: degenerate masked output", ErrNoParams)
		}
		if err := b.Output(masked); err != nil {
			return nil, err
		}
	}
	return b.Build()
}
