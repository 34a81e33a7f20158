package core

import (
	"context"
	"fmt"

	"repro/internal/bitmat"
	"repro/internal/circuit"
	"repro/internal/gmw"
	"repro/internal/prf"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Stages B and C run as four bit-sliced GMW executions. CountBelowSlice and
// RevealSlice run over all n identities at once: every wire carries
// L = ⌈n/64⌉ words, identity j in bit j mod 64 of word ⌊j/64⌋, so their
// rounds are their circuits' depths, whatever n is. Between them the count
// opener runs two small executions whose depth grows with log n. Three
// invariants hold:
//
//   - Thresholds enter as data, not circuit structure. Shares live in
//     Z_{2^W} with W = bits(m+1)+1; party 0 folds (2^W − t_j) into its
//     share (CountBelowSlice) or feeds it as a trailing private input
//     (RevealSlice, where the raw frequency must survive for the masked
//     output). The comparator then reads the sign bit of freq − t, so one
//     compiled circuit serves every identity.
//
//   - Nothing beyond the paper's releases is opened. CountBelowSlice runs
//     shares-kept (the per-identity ≥-bits stay secret); the count opener
//     sums the kept bits in two shares-kept levels and opens the total
//     alone. RevealSlice opens the hidden bit and the coin-masked
//     frequency.
//
//   - Lanes past n carry public padding: zero shares and a folded t = 1
//     (offset 2^W − 1), so they are never common and their outputs are
//     discarded. Their wire values are therefore public, which is what
//     lets OT preprocessing give them the all-zero triple (THEORY.md).
//
// Execution s (1 = CountBelowSlice, 2 and 3 = the count opener's levels,
// 4 = RevealSlice) runs on a c-party network of its own under
// prf.Seed(Seed, prf.Exec, s), from which gmw keys its triples, input
// sharing and OT entropy, and coordinator k's mixing coins are keyed per
// identity (prf.Coins). Opened outputs do not depend on any protocol
// randomness, so the hidden set and the opened frequencies are a function
// of (Seed, inputs) alone: the same at any worker count. Every party holds
// O(wires · ⌈n/64⌉) words per execution.
type mpcStages struct {
	ctx        context.Context
	cfg        Config
	c          int
	w          int // share width W = bits(m+1) + 1
	n          int
	words      int // words per wire, ⌈n/64⌉
	workers    int
	shares     [][]uint64 // coordinator share vectors over Z_{2^W}
	thresholds []uint64
}

// mpcOut is the accounting record of stage B or stage C (count is unused
// in stage C).
type mpcOut struct {
	circ   circuit.Stats
	count  int
	stats  transport.Stats
	rounds int
}

// record adds one execution over `words` words per wire: circuit sizes in
// word units (each count times words), the circuit's AND depth once (the
// stage's executions run one after another), traffic and rounds.
func (o *mpcOut) record(circ *circuit.Circuit, words int, res *gmw.Result) {
	s := circ.Stats()
	o.circ.Wires += s.Wires * words
	o.circ.Gates += s.Gates * words
	o.circ.AndGates += s.AndGates * words
	o.circ.FreeGates += s.FreeGates * words
	o.circ.Inputs += s.Inputs * words
	o.circ.Outputs += s.Outputs * words
	o.circ.AndDepth += s.AndDepth
	o.stats.Messages += res.Stats.Messages
	o.stats.Bytes += res.Stats.Bytes
	o.rounds += res.Rounds
}

// packPlanes slices per-identity values into bit-plane words: bit i of
// vals[j] lands in bit j mod 64 of word i·words + ⌊j/64⌋, one
// bitmat.Transpose64 per 64 identities. Lanes past len(vals) carry pad.
// Values must fit in planes bits.
func packPlanes(vals []uint64, pad uint64, planes, words int) []uint64 {
	out := make([]uint64, planes*words)
	var tile [64]uint64
	for l := 0; l < words; l++ {
		for r := range tile {
			tile[r] = pad
			if j := 64*l + r; j < len(vals) {
				tile[r] = vals[j]
			}
		}
		bitmat.Transpose64(&tile)
		for i := 0; i < planes; i++ {
			out[i*words+l] = tile[i]
		}
	}
	return out
}

// run runs execution exec on a c-party network and span of its own, with
// preprocessing per the configuration (sharded dealer, or OT over the same
// network for the first `live` instances only). Stage B's three
// executions are 1 to 3 and stage C is 4.
func (st *mpcStages) run(stage string, exec uint64, circ *circuit.Circuit, words, live int, inputs [][]uint64, mode gmw.Mode) (*gmw.Result, error) {
	_, sp := trace.StartChild(st.ctx, stage,
		trace.Int("identities", st.n), trace.Int("words", words))
	defer sp.End()
	seed := prf.Seed(st.cfg.Seed, prf.Exec, exec)
	var res *gmw.Result
	err := st.cfg.onNetwork(st.c, sp, func(net transport.Network) error {
		var triples []gmw.Triples
		var err error
		if st.cfg.Triples == TripleOT {
			if triples, err = gmw.GenTriplesOT(net, circ.Stats().AndGates, words, live, seed); err != nil {
				return fmt.Errorf("OT preprocessing: %w", err)
			}
		} else if triples, err = gmw.GenTriplesWideSharded(seed, st.c, circ.Stats().AndGates*words, st.workers); err != nil {
			return err
		}
		res, err = gmw.Run(net, circ, words, inputs, triples, seed, mode)
		return err
	})
	return res, err
}

// countBelow is stage B: three executions and one opening. A shares-kept
// CountBelowSlice gives every identity's ≥-threshold bit as XOR shares,
// identity j in bit j mod 64 of word ⌊j/64⌉. Read as L = ⌈n/64⌉ one-word
// wires, those words are the slots of a shares-kept SliceCount whose lane r
// counts the identities j ≡ r mod 64. Bit r of each of its output words is
// then moved into slot r of one SliceCount in lane 0, which opens the total
// alone. The move is a local permutation of share bits and sends nothing.
func (st *mpcStages) countBelow() (mpcOut, error) {
	var out mpcOut
	cbCirc, err := circuit.CountBelowSliceCached(circuit.SliceParams{Parties: st.c, ShareBits: st.w})
	if err != nil {
		return out, fmt.Errorf("compile CountBelowSlice: %w", err)
	}
	mod := uint64(1) << uint(st.w)
	folded := make([]uint64, st.n)
	for j := range folded {
		folded[j] = (st.shares[0][j] + mod - st.thresholds[j]%mod) % mod
	}
	inputs := make([][]uint64, st.c)
	// Padded lanes: zero shares with t = 1 folded ⟹ never ≥.
	inputs[0] = packPlanes(folded, mod-1, st.w, st.words)
	for k := 1; k < st.c; k++ {
		inputs[k] = packPlanes(st.shares[k], 0, st.w, st.words)
	}
	cbRes, err := st.run("mpc.countbelow", 1, cbCirc, st.words, st.n, inputs, gmw.KeepShared)
	if err != nil {
		return out, fmt.Errorf("CountBelowSlice MPC: %w", err)
	}
	out.record(cbCirc, st.words, cbRes)

	laneCirc, err := circuit.SliceCountCached(circuit.SliceCountParams{Parties: st.c, Slots: st.words, Width: 1})
	if err != nil {
		return out, fmt.Errorf("compile lane SliceCount: %w", err)
	}
	for k, in := range cbRes.OutputShares {
		// Every party zeroes its shares of the bits past n, so their XOR
		// stays the true never-common bit and dead lanes stay public.
		if r := st.n % gmw.Lanes; r != 0 {
			in[st.words-1] &= 1<<uint(r) - 1
		}
		inputs[k] = in
	}
	laneRes, err := st.run("mpc.slicecount", 2, laneCirc, 1, min(st.n, gmw.Lanes), inputs, gmw.KeepShared)
	if err != nil {
		return out, fmt.Errorf("lane SliceCount MPC: %w", err)
	}
	out.record(laneCirc, 1, laneRes)

	width := len(laneCirc.Outputs())
	sumCirc, err := circuit.SliceCountCached(circuit.SliceCountParams{Parties: st.c, Slots: gmw.Lanes, Width: width})
	if err != nil {
		return out, fmt.Errorf("compile total SliceCount: %w", err)
	}
	for k, counts := range laneRes.OutputShares {
		in := make([]uint64, gmw.Lanes*width)
		for r := range gmw.Lanes {
			for i, w := range counts {
				in[r*width+i] = w >> uint(r) & 1
			}
		}
		inputs[k] = in
	}
	sumRes, err := st.run("mpc.opencount", 3, sumCirc, 1, 1, inputs, gmw.Open)
	if err != nil {
		return out, fmt.Errorf("total SliceCount MPC: %w", err)
	}
	out.record(sumCirc, 1, sumRes)
	for i, w := range sumRes.Outputs {
		out.count |= int(w&1) << uint(i)
	}
	return out, nil
}

// reveal is stage C: one RevealSlice execution over all n identities,
// on the coins and cutoff of mx. Identity j is hidden iff it is common or
// its joint coin, the XOR of the c coordinators' coins, is below the
// cutoff: the predicate trusted mode evaluates in the clear. Padded lanes
// carry zero shares, zero coins and a folded t = 1; their outputs are
// discarded undecoded. The returned function reads identity j's opened
// hidden bit and frequency (0 when hidden).
func (st *mpcStages) reveal(mx *mixing) (mpcOut, func(j int) (bool, uint64), error) {
	var out mpcOut
	coinBits := st.cfg.coinBits()
	rvCirc, err := circuit.RevealSliceCached(circuit.SliceParams{
		Parties: st.c, ShareBits: st.w, CoinBits: coinBits, MixThreshold: mx.cut,
	})
	if err != nil {
		return out, nil, fmt.Errorf("compile RevealSlice: %w", err)
	}
	mod := uint64(1) << uint(st.w)
	offsets := make([]uint64, st.n)
	for j := range offsets {
		offsets[j] = (mod - st.thresholds[j]%mod) % mod
	}
	inputs := make([][]uint64, st.c)
	for k := range inputs {
		var coins []uint64 // all zero when no coin was drawn
		if mx.coins != nil {
			coins = mx.coins[k]
		}
		in := packPlanes(st.shares[k], 0, st.w, st.words)
		in = append(in, packPlanes(coins, 0, coinBits, st.words)...)
		if k == 0 {
			in = append(in, packPlanes(offsets, mod-1, st.w, st.words)...)
		}
		inputs[k] = in
	}
	res, err := st.run("mpc.reveal", 4, rvCirc, st.words, st.n, inputs, gmw.Open)
	if err != nil {
		return out, nil, fmt.Errorf("RevealSlice MPC: %w", err)
	}
	opened := res.Outputs
	if len(opened) != (1+st.w)*st.words {
		return out, nil, fmt.Errorf("core: reveal output words %d, want %d", len(opened), (1+st.w)*st.words)
	}
	out.record(rvCirc, st.words, res)
	return out, func(j int) (bool, uint64) {
		l, r := j/64, uint(j%64)
		var freq uint64
		for i := 0; i < st.w; i++ {
			freq |= (opened[(1+i)*st.words+l] >> r & 1) << uint(i)
		}
		return opened[l]>>r&1 == 1, freq
	}, nil
}
