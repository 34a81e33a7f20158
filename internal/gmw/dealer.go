package gmw

import (
	"fmt"
	"math/rand"

	"repro/internal/mathx"
	"repro/internal/parallel"
)

// tripleShard is the number of word-triple ordinals dealt per derived RNG
// stream. The value is a block-size / scheduling trade-off only; changing
// it changes the dealt triples (they are a function of (seed, shard)), so
// it is fixed as part of the deterministic output contract.
const tripleShard = 4096

// tripleStream labels the DeriveSeed stream of the sharded dealer.
const tripleStream uint64 = 0x77696465 // "wide"

// GenTriplesWideSharded deals count word-triples (64 lanes each) for
// `parties` parties: the trusted offline dealer. The ordinal range is
// sharded into fixed 4096-triple blocks, each dealt from an independent
// child seed (mathx.DeriveSeed(seed, stream, shard)) across up to
// `workers` goroutines, so the output is a function of (seed, shard) only
// and bit-identical at any worker count.
func GenTriplesWideSharded(seed int64, parties, count, workers int) ([]Triples, error) {
	if parties < 2 || count < 0 {
		return nil, fmt.Errorf("gmw: bad dealer request parties=%d count=%d", parties, count)
	}
	out := newTriples(parties, count)
	// Each block writes disjoint ordinals of the shared slices, so the
	// blocks are race-free without locks.
	err := parallel.Blocks(workers, count, tripleShard, func(shard, lo, hi int) error {
		rng := rand.New(rand.NewSource(mathx.DeriveSeed(seed, tripleStream, uint64(shard))))
		for t := lo; t < hi; t++ {
			a := rng.Uint64()
			b := rng.Uint64()
			shareWordInto(rng, a, out, t, func(wt *Triples) []uint64 { return wt.A })
			shareWordInto(rng, b, out, t, func(wt *Triples) []uint64 { return wt.B })
			shareWordInto(rng, a&b, out, t, func(wt *Triples) []uint64 { return wt.C })
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// shareWordInto XOR-shares v across the parties at ordinal t of the word
// slice sel picks.
func shareWordInto(rng *rand.Rand, v uint64, out []Triples, t int, sel func(*Triples) []uint64) {
	var acc uint64
	for p := 0; p < len(out)-1; p++ {
		s := rng.Uint64()
		sel(&out[p])[t] = s
		acc ^= s
	}
	sel(&out[len(out)-1])[t] = v ^ acc
}
