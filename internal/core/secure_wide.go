package core

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/bitmat"
	"repro/internal/circuit"
	"repro/internal/gmw"
	"repro/internal/mathx"
	"repro/internal/parallel"
	"repro/internal/trace"
	"repro/internal/transport"
)

// The wide secure path evaluates stages B and C as three bit-sliced GMW
// executions over all n identities at once. Every wire carries L = ⌈n/64⌉
// words, identity j in bit j mod 64 of word ⌊j/64⌋, so a construction
// takes as many rounds as the three circuits are deep, whatever n is.
// Three invariants tie it to the scalar path:
//
//   - Thresholds enter as data, not circuit structure. Shares live in
//     Z_{2^W} with W = bits(m+1)+1; party 0 folds (2^W − t_j) into its
//     share (CountBelowSlice) or feeds it as a trailing private input
//     (RevealSlice, where the raw frequency must survive for the masked
//     output). The comparator then reads the sign bit of freq − t, so one
//     compiled circuit serves every identity.
//
//   - Nothing extra is opened. CountBelowSlice runs shares-kept (the
//     per-identity ≥-bits are exactly the secret the scalar circuit keeps
//     internal); one wide SliceCount execution whose lanes are the identity
//     batches XORs the kept shares and opens only the per-batch counts,
//     matching the scalar release granularity (batch counts are public
//     parameters either way).
//
//   - The published matrix is bit-identical to the scalar path. The count
//     is an exact sum either way, so λ and the mixing threshold agree; the
//     mixing coins replicate the scalar per-batch stream in the scalar
//     draw order; lanes past n are padded with zero shares and a folded
//     t = 1 (offset 2^W − 1), making them never-common and their outputs
//     discardable.
//
// Each execution draws its protocol seed from (Seed, stage stream) and runs
// sequentially after the previous one, so the run is deterministic at any
// worker count. BatchSize sets only the count release granularity here:
// every party holds O(wires · ⌈n/64⌉) words per execution.
type wideState struct {
	ctx        context.Context
	cfg        Config
	mux        *transport.SessionMux
	c          int
	w          int // widened share width W = bits(m+1) + 1
	m          int
	n          int
	words      int // words per wire, ⌈n/64⌉
	workers    int
	shares     [][]uint64 // coordinator share vectors over Z_{2^W}
	thresholds []uint64
}

// wideOut is the accounting record of a stage-B or stage-C computation
// (both paths; count is unused in stage C).
type wideOut struct {
	circ   circuit.Stats
	count  int
	stats  transport.Stats
	rounds int
}

// record adds one wide execution over `words` words per wire: circuit
// sizes in word units (once per word, as the per-slab sums counted them),
// traffic and rounds.
func (o *wideOut) record(circ *circuit.Circuit, words int, res *gmw.WideResult) {
	s := circ.Stats()
	for range words {
		o.circ = addCircuitStats(o.circ, s)
	}
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

// batchLanes regroups one party's kept ≥-bit shares (bit j mod 64 of word
// ⌊j/64⌋ = identity j) so that lanes are batches: bit r of slot s's word l
// is the share of identity (64·l + r)·batch + s. Identities past n get
// zero shares, whose XOR is their true never-common bit. Each 64×64 tile
// of (batch, slot) bits is cut from the vector at bit offset
// batch·b + 64·block and turned by bitmat.Transpose64.
func batchLanes(vec []uint64, n, batch, words int) []uint64 {
	out := make([]uint64, batch*words)
	var tile [64]uint64
	for l := 0; l < words; l++ {
		for s0 := 0; s0 < batch; s0 += 64 {
			for r := range tile {
				lo := (64*l+r)*batch + s0
				tile[r] = 0
				if valid := min(64, batch-s0, n-lo); valid > 0 {
					w, sh := lo/64, uint(lo%64)
					x := vec[w] >> sh
					if sh != 0 && w+1 < len(vec) {
						x |= vec[w+1] << (64 - sh)
					}
					tile[r] = x & (^uint64(0) >> uint(64-valid))
				}
			}
			bitmat.Transpose64(&tile)
			for i := 0; i < 64 && s0+i < batch; i++ {
				out[(s0+i)*words+l] = tile[i]
			}
		}
	}
	return out
}

// runWide runs one bit-sliced execution over its own session and span,
// with preprocessing per the configuration (sharded dealer, or per-lane OT
// over the same session), and tears the mux down on failure. Stages B, the
// count opener and stage C use sessions 1, 2 and 3; the scalar 1+2b/2+2b
// ids are never minted when Wide is set.
func (ws *wideState) runWide(stage string, sessID uint32, circ *circuit.Circuit, words int, inputs [][]uint64, seed int64, keepShared bool) (*gmw.WideResult, error) {
	sess, err := ws.mux.Session(sessID)
	if err != nil {
		return nil, fmt.Errorf("coordinator session: %w", err)
	}
	_, sp := trace.StartChild(ws.ctx, stage,
		trace.Int("identities", ws.n), trace.Int("words", words))
	transport.AttachSpan(sess, sp)
	defer sp.End()
	andWords := circ.Stats().AndGates * words
	var triples []gmw.WideTriples
	if ws.cfg.Triples == TripleOT {
		triples, err = gmw.GenTriplesWideOT(sess, andWords, seed+7919)
		if err != nil {
			err = fmt.Errorf("OT preprocessing: %w", err)
		}
	} else {
		triples, err = gmw.GenTriplesWideSharded(seed, ws.c, andWords, ws.workers)
	}
	var res *gmw.WideResult
	if err == nil {
		if keepShared {
			res, err = gmw.RunWideShared(sess, circ, words, inputs, triples, seed)
		} else {
			res, err = gmw.RunWideWithTriples(sess, circ, words, inputs, triples, seed)
		}
	}
	sess.Close()
	if err != nil {
		ws.mux.Close()
		return nil, err
	}
	return res, nil
}

// countBelow is the wide stage B. One shares-kept CountBelowSlice
// execution gives every identity's ≥-threshold bit as XOR shares; one wide
// SliceCount execution whose lanes are the nb identity batches then opens
// the per-batch counts. The returned count is their sum.
func (ws *wideState) countBelow(batch, nb int) (wideOut, error) {
	var out wideOut
	cbCirc, err := circuit.CountBelowSliceCached(circuit.SliceParams{
		Parties: ws.c, ShareBits: ws.w, Arithmetic: ws.cfg.Arithmetic,
	})
	if err != nil {
		return out, fmt.Errorf("compile CountBelowSlice: %w", err)
	}
	mod := uint64(1) << uint(ws.w)
	folded := make([]uint64, ws.n)
	for j := range folded {
		folded[j] = (ws.shares[0][j] + mod - ws.thresholds[j]%mod) % mod
	}
	inputs := make([][]uint64, ws.c)
	// Padded lanes: zero shares with t = 1 folded ⟹ never ≥.
	inputs[0] = packPlanes(folded, mod-1, ws.w, ws.words)
	for k := 1; k < ws.c; k++ {
		inputs[k] = packPlanes(ws.shares[k], 0, ws.w, ws.words)
	}
	cbRes, err := ws.runWide("mpc.countbelow", 1, cbCirc, ws.words, inputs,
		mathx.DeriveSeed(ws.cfg.Seed, seedStreamWideCountBelow, 0), true)
	if err != nil {
		return out, fmt.Errorf("CountBelowSlice MPC: %w", err)
	}
	out.record(cbCirc, ws.words, cbRes)

	scCirc, err := circuit.SliceCountCached(circuit.SliceCountParams{
		Parties: ws.c, Slots: batch, Arithmetic: ws.cfg.Arithmetic,
	})
	if err != nil {
		return out, fmt.Errorf("compile SliceCount: %w", err)
	}
	scWords := (nb + 63) / 64
	for k := range inputs {
		inputs[k] = batchLanes(cbRes.OutputShares[k], ws.n, batch, scWords)
	}
	scRes, err := ws.runWide("mpc.slicecount", 2, scCirc, scWords, inputs,
		mathx.DeriveSeed(ws.cfg.Seed, seedStreamSliceCount, 0), false)
	if err != nil {
		return out, fmt.Errorf("SliceCount MPC: %w", err)
	}
	out.record(scCirc, scWords, scRes)
	for b := 0; b < nb; b++ {
		for i := range scCirc.Outputs() {
			out.count += int(scRes.Outputs[i*scWords+b/64]>>uint(b%64)&1) << uint(i)
		}
	}
	return out, nil
}

// reveal is the wide stage C: one RevealSlice execution over all n
// identities. The mixing coins replicate the scalar stream exactly — same
// per-batch seed, same party-major identity-minor draw order — so the
// hidden set, the β vector and therefore the published matrix are
// bit-identical to the scalar path. Padded lanes carry zero shares, zero
// coins and a folded t = 1; their outputs are discarded undecoded.
func (ws *wideState) reveal(batch, coinBits int, coinMod, mixThreshold uint64, eps []float64, hidden []bool, betas []float64) (wideOut, error) {
	var out wideOut
	rvCirc, err := circuit.RevealSliceCached(circuit.SliceParams{
		Parties: ws.c, ShareBits: ws.w, CoinBits: coinBits,
		MixThreshold: mixThreshold, Arithmetic: ws.cfg.Arithmetic,
	})
	if err != nil {
		return out, fmt.Errorf("compile RevealSlice: %w", err)
	}
	coins := make([][]uint64, ws.c)
	for k := range coins {
		coins[k] = make([]uint64, ws.n)
	}
	for b, lo := 0, 0; lo < ws.n; b, lo = b+1, lo+batch {
		hi := min(lo+batch, ws.n)
		coinRng := rand.New(rand.NewSource(mathx.DeriveSeed(ws.cfg.Seed, seedStreamCoins, uint64(b))))
		for k := range coins {
			for j := lo; j < hi; j++ {
				coins[k][j] = coinRng.Uint64() % coinMod
			}
		}
	}
	mod := uint64(1) << uint(ws.w)
	offsets := make([]uint64, ws.n)
	for j := range offsets {
		offsets[j] = (mod - ws.thresholds[j]%mod) % mod
	}
	inputs := make([][]uint64, ws.c)
	for k := range inputs {
		in := packPlanes(ws.shares[k], 0, ws.w, ws.words)
		in = append(in, packPlanes(coins[k], 0, coinBits, ws.words)...)
		if k == 0 {
			in = append(in, packPlanes(offsets, mod-1, ws.w, ws.words)...)
		}
		inputs[k] = in
	}
	res, err := ws.runWide("mpc.reveal", 3, rvCirc, ws.words, inputs,
		mathx.DeriveSeed(ws.cfg.Seed, seedStreamWideReveal, 0), false)
	if err != nil {
		return out, fmt.Errorf("RevealSlice MPC: %w", err)
	}
	if len(res.Outputs) != (1+ws.w)*ws.words {
		return out, fmt.Errorf("core: wide reveal output words %d, want %d", len(res.Outputs), (1+ws.w)*ws.words)
	}
	out.record(rvCirc, ws.words, res)
	// Decode (hidden, masked frequency) per identity and derive β (Eq. 6).
	err = parallel.Blocks(ws.workers, ws.n, colShard, func(_, lo, hi int) error {
		for j := lo; j < hi; j++ {
			l, r := j/64, uint(j%64)
			hidden[j] = res.Outputs[l]>>r&1 == 1
			if hidden[j] {
				betas[j] = 1
				continue
			}
			var freq uint64
			for i := 0; i < ws.w; i++ {
				freq |= (res.Outputs[(1+i)*ws.words+l] >> r & 1) << uint(i)
			}
			bv, err := mathx.Beta(ws.cfg.Policy, mathx.BetaParams{
				Sigma: float64(freq) / float64(ws.m), Epsilon: eps[j], M: ws.m, Delta: ws.cfg.Delta, Gamma: ws.cfg.Gamma,
			})
			if err != nil {
				return fmt.Errorf("β for identity %d: %w", j, err)
			}
			betas[j] = bv
		}
		return nil
	})
	return out, err
}
