package gmw

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/prf"
)

// tripleShard is the number of word-triple ordinals dealt from one keyed
// stream: a block-size / scheduling trade-off. The dealt triples are a
// function of (seed, shard), so changing it changes them, but no opened
// output depends on which correct triples a run consumes.
const tripleShard = 4096

// GenTriplesWideSharded deals count word-triples (64 lanes each) for
// `parties` parties: the trusted offline dealer. The ordinal range is
// sharded into fixed 4096-triple blocks, each dealt from its own keystream
// prf.Key(seed, prf.Dealer, shard) across up to `workers` goroutines, so
// the output is a function of (seed, shard) only and bit-identical at any
// worker count.
func GenTriplesWideSharded(seed int64, parties, count, workers int) ([]Triples, error) {
	if parties < 2 || count < 0 {
		return nil, fmt.Errorf("gmw: bad dealer request parties=%d count=%d", parties, count)
	}
	out := newTriples(parties, count)
	// Per ordinal: a, b, then one share word each of a, b and a∧b for every
	// party but the last, which takes the balancing terms.
	per := 2 + 3*(parties-1)
	last := &out[parties-1]
	// Each block writes disjoint ordinals of the shared slices, so the
	// blocks are race-free without locks.
	err := parallel.Blocks(workers, count, tripleShard, func(shard, lo, hi int) error {
		words := make([]uint64, (hi-lo)*per)
		prf.New(prf.Key(seed, prf.Dealer, uint64(shard))).Words(words)
		for t := lo; t < hi; t++ {
			w := words[(t-lo)*per:]
			a, b := w[0], w[1]
			c := a & b
			for p := range parties - 1 {
				sa, sb, sc := w[2+3*p], w[3+3*p], w[4+3*p]
				out[p].A[t], out[p].B[t], out[p].C[t] = sa, sb, sc
				a, b, c = a^sa, b^sb, c^sc
			}
			last.A[t], last.B[t], last.C[t] = a, b, c
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
