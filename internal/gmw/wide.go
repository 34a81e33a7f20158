package gmw

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/mathx"
	"repro/internal/parallel"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Bit-sliced (SIMD-within-a-register) evaluation: one protocol execution
// runs 64·L independent instances of the same circuit. A wire's share is L
// uint64 words, and bit k of word l belongs to instance 64·l + k. XOR and
// AND-combination are word loops, a NOT is a word complement at party 0,
// and one Beaver word-triple per (AND gate, word) serves 64 instances.
// Each AND layer broadcasts its d/e *words* in one message per peer — no
// per-bit pack/unpack — so a run takes the circuit's AND depth plus two
// rounds (one fewer with outputs kept shared) whatever L is.

// WideLanes is the number of circuit instances one word of a wire carries.
const WideLanes = 64

// WideTriples holds one party's XOR shares of bit-sliced Beaver triples:
// every word is a 64-lane triple whose bits satisfy
// (⊕ᵢ Aᵢ[t]) ∧ (⊕ᵢ Bᵢ[t]) = ⊕ᵢ Cᵢ[t] bit-wise. A run over L words per wire
// uses word t·L + l for AND-gate ordinal t, word l.
type WideTriples struct {
	A, B, C []uint64
}

// GenTriplesWide deals bit-sliced Beaver triples for `parties` parties and
// `count` AND gates (one word-triple per gate, 64 lanes each) from rng.
func GenTriplesWide(rng *rand.Rand, parties, count int) ([]WideTriples, error) {
	if parties < 2 || count < 0 {
		return nil, fmt.Errorf("gmw: bad dealer request parties=%d count=%d", parties, count)
	}
	out := make([]WideTriples, parties)
	for p := range out {
		out[p] = WideTriples{
			A: make([]uint64, count),
			B: make([]uint64, count),
			C: make([]uint64, count),
		}
	}
	for t := 0; t < count; t++ {
		dealWideTriple(rng, out, t)
	}
	return out, nil
}

// dealWideTriple deals ordinal t: sample the 64-lane secrets, XOR-share
// each word across the parties.
func dealWideTriple(rng *rand.Rand, out []WideTriples, t int) {
	a := rng.Uint64()
	b := rng.Uint64()
	c := a & b
	shareWordInto(rng, a, out, t, func(wt *WideTriples) []uint64 { return wt.A })
	shareWordInto(rng, b, out, t, func(wt *WideTriples) []uint64 { return wt.B })
	shareWordInto(rng, c, out, t, func(wt *WideTriples) []uint64 { return wt.C })
}

func shareWordInto(rng *rand.Rand, v uint64, out []WideTriples, t int, sel func(*WideTriples) []uint64) {
	var acc uint64
	for p := 0; p < len(out)-1; p++ {
		s := rng.Uint64()
		sel(&out[p])[t] = s
		acc ^= s
	}
	sel(&out[len(out)-1])[t] = v ^ acc
}

// tripleStreamWide labels the DeriveSeed stream of the sharded wide dealer
// (distinct from the scalar dealer's stream so the two never collide).
const tripleStreamWide uint64 = 0x77696465 // "wide"

// GenTriplesWideSharded deals the same word-triples as GenTriplesWide but
// shards the ordinal range into fixed 4096-triple blocks, each dealt from
// an independent child seed across up to `workers` goroutines. The output
// is a function of (seed, shard) only, hence bit-identical at any worker
// count.
func GenTriplesWideSharded(seed int64, parties, count, workers int) ([]WideTriples, error) {
	if parties < 2 || count < 0 {
		return nil, fmt.Errorf("gmw: bad dealer request parties=%d count=%d", parties, count)
	}
	out := make([]WideTriples, parties)
	for p := range out {
		out[p] = WideTriples{
			A: make([]uint64, count),
			B: make([]uint64, count),
			C: make([]uint64, count),
		}
	}
	err := parallel.Blocks(workers, count, tripleShard, func(shard, lo, hi int) error {
		rng := rand.New(rand.NewSource(mathx.DeriveSeed(seed, tripleStreamWide, uint64(shard))))
		for t := lo; t < hi; t++ {
			dealWideTriple(rng, out, t)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// GenTriplesWideOT runs the pairwise-OT preprocessing for count
// word-triples by generating count·64 scalar triples over net and packing
// lane k of ordinal t from scalar ordinal t·64+k. OT preprocessing does
// not amortize across lanes — each lane's cross terms still need their own
// OTs — the wide win is the online phase; this keeps the cost model
// honest while letting OT-configured deployments use the wide evaluator.
func GenTriplesWideOT(net transport.Network, count int, seed int64) ([]WideTriples, error) {
	if count < 0 {
		return nil, fmt.Errorf("gmw: negative triple count %d", count)
	}
	scalar, err := GenTriplesOT(net, count*WideLanes, seed)
	if err != nil {
		return nil, err
	}
	out := make([]WideTriples, len(scalar))
	for p, pt := range scalar {
		wt := WideTriples{
			A: make([]uint64, count),
			B: make([]uint64, count),
			C: make([]uint64, count),
		}
		for t := 0; t < count; t++ {
			for k := 0; k < WideLanes; k++ {
				i := t*WideLanes + k
				wt.A[t] |= uint64(pt.A[i]&1) << uint(k)
				wt.B[t] |= uint64(pt.B[i]&1) << uint(k)
				wt.C[t] |= uint64(pt.C[i]&1) << uint(k)
			}
		}
		out[p] = wt
	}
	return out, nil
}

// WideResult carries a wide run's outputs and execution accounting. Output
// wire i of a run over L words per wire occupies words [i·L, (i+1)·L), and
// bit k of word l is instance 64·l + k's value.
type WideResult struct {
	// Outputs holds the opened output words; nil when the run kept the
	// outputs shared.
	Outputs []uint64
	// OutputShares[p] holds party p's XOR-share words of the output wires
	// when the run kept them shared (RunWideShared); nil otherwise. Opening
	// a wire means XOR-ing the parties' words.
	OutputShares [][]uint64
	// Rounds is the number of sequential communication rounds used.
	Rounds int
	// Stats is the transport traffic consumed by the run.
	Stats transport.Stats
}

// RunWide evaluates 64 independent instances of circ (one word per wire)
// securely over net with dealer-generated word-triples. inputs[p] holds
// one word per input wire owned by party p (in the order p's wires appear
// in circ.Inputs()); bit k of each word is instance k's private bit.
func RunWide(net transport.Network, circ *circuit.Circuit, inputs [][]uint64, seed int64) (*WideResult, error) {
	andCount := circ.Stats().AndGates
	dealerRng := rand.New(rand.NewSource(seed))
	triples, err := GenTriplesWide(dealerRng, net.Size(), andCount)
	if err != nil {
		return nil, err
	}
	return runWideCommon(net, circ, 1, inputs, triples, seed, false)
}

// RunWideWithTriples evaluates 64·words independent instances of circ with
// caller-provided word-triples (from GenTriplesWideSharded,
// GenTriplesWideOT, or another preprocessing), words of them per AND gate.
// inputs[p] holds `words` words per input wire owned by party p, wire by
// wire in the order p's wires appear in circ.Inputs(); bit k of a wire's
// word l is instance 64·l + k's private bit.
func RunWideWithTriples(net transport.Network, circ *circuit.Circuit, words int, inputs [][]uint64, triples []WideTriples, seed int64) (*WideResult, error) {
	return runWideCommon(net, circ, words, inputs, triples, seed, false)
}

// RunWideShared evaluates like RunWideWithTriples but skips the output
// reconstruction round: the result carries each party's output-wire share
// words instead of opened values. The secure pipeline uses this when
// opening would leak (per-identity threshold bits must stay hidden and
// only a downstream aggregate is ever opened).
func RunWideShared(net transport.Network, circ *circuit.Circuit, words int, inputs [][]uint64, triples []WideTriples, seed int64) (*WideResult, error) {
	return runWideCommon(net, circ, words, inputs, triples, seed, true)
}

func runWideCommon(net transport.Network, circ *circuit.Circuit, words int, inputs [][]uint64, triples []WideTriples, seed int64, keepShared bool) (*WideResult, error) {
	n := net.Size()
	if words < 1 {
		return nil, fmt.Errorf("%w: %d words per wire", ErrInputShape, words)
	}
	if len(inputs) != n {
		return nil, fmt.Errorf("%w: %d input sets for %d parties", ErrInputShape, len(inputs), n)
	}
	owned := make([][]int, n)
	for idx, in := range circ.Inputs() {
		if in.Party < 0 || in.Party >= n {
			return nil, fmt.Errorf("%w: input wire owned by party %d in %d-party net", ErrInputShape, in.Party, n)
		}
		owned[in.Party] = append(owned[in.Party], idx)
	}
	for p := 0; p < n; p++ {
		if len(inputs[p]) != len(owned[p])*words {
			return nil, fmt.Errorf("%w: party %d supplies %d words, owns %d wires of %d words",
				ErrInputShape, p, len(inputs[p]), len(owned[p]), words)
		}
	}
	andCount := circ.Stats().AndGates
	if len(triples) != n {
		return nil, fmt.Errorf("%w: %d triple sets for %d parties", ErrTripleShape, len(triples), n)
	}
	need := andCount * words
	for p, wt := range triples {
		if len(wt.A) < need || len(wt.B) < need || len(wt.C) < need {
			return nil, fmt.Errorf("%w: party %d holds %d word-triples, circuit needs %d (%d AND gates × %d words)",
				ErrTripleShape, p, min(len(wt.A), len(wt.B), len(wt.C)), need, andCount, words)
		}
	}

	tm := newTimers(transport.RegistryOf(net))
	tm.runs.Inc()
	rounds := 1 + len(circ.AndRounds())
	if !keepShared {
		rounds++
	}
	runSpan := transport.SpanOf(net)
	runSpan.SetAttrs(
		trace.Int("parties", n),
		trace.Int("words", words),
		trace.Int("instances", WideLanes*words),
		trace.Int("and_gates", andCount),
		trace.Int("and_layers", len(circ.AndRounds())),
		trace.Int("rounds", rounds))
	before := net.Stats()
	results := make([][]uint64, n)
	errs := make([]error, n)
	var failOnce sync.Once
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var sp *trace.Span
			if p == 0 {
				sp = runSpan
			}
			rng := rand.New(rand.NewSource(seed ^ int64(p+1)*104729))
			out, err := runPartyWide(net.Node(p), circ, owned, words, inputs[p], triples[p], rng, tm, sp, keepShared)
			if err != nil {
				errs[p] = fmt.Errorf("party %d: %w", p, err)
				failOnce.Do(func() { net.Close() })
				return
			}
			results[p] = out
		}(p)
	}
	wg.Wait()
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil || (errors.Is(firstErr, transport.ErrClosed) && !errors.Is(err, transport.ErrClosed)) {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	res := &WideResult{Rounds: rounds}
	if keepShared {
		res.OutputShares = results
	} else {
		// All parties must reconstruct identical output words.
		for p := 1; p < n; p++ {
			for i := range results[0] {
				if results[p][i] != results[0][i] {
					return nil, fmt.Errorf("%w: parties 0 and %d disagree on output %d", ErrProtocol, p, i)
				}
			}
		}
		res.Outputs = results[0]
	}
	after := net.Stats()
	tm.rounds.Add(uint64(rounds))
	tm.andLayers.Add(uint64(countAndLayers(circ)))
	tm.triples.Add(uint64(need) * WideLanes)
	res.Stats = transport.Stats{
		Messages: after.Messages - before.Messages,
		Bytes:    after.Bytes - before.Bytes,
	}
	return res, nil
}

// runPartyWide executes one party's role across all 64·words lanes and
// returns either the opened output words or (keepShared) this party's
// share words. Wire w's share occupies words [w·words, (w+1)·words).
func runPartyWide(node transport.Node, circ *circuit.Circuit, owned [][]int, words int, myInputs []uint64, triples WideTriples, rng *rand.Rand, tm *timers, sp *trace.Span, keepShared bool) ([]uint64, error) {
	n := node.Size()
	id := node.ID()
	coll := transport.NewCollector(node)
	shares := make([]uint64, circ.NumWires()*words)
	wire := func(w circuit.Wire) []uint64 { return shares[int(w)*words : int(w+1)*words] }
	circInputs := circ.Inputs()
	gates := circ.Gates()

	phaseStart := time.Now()
	phaseSpan := sp.Child("gmw.input_share")
	// --- Round 1: input sharing -------------------------------------------
	// For each owned wire word, sample one share word per party; keep ours,
	// send the rest. The payload to party q is q's share words of our wires
	// in owned-order — already word-shaped, no packing step.
	if len(myInputs) > 0 {
		for q := 0; q < n; q++ {
			if q == id {
				continue
			}
			buf := transport.GetWords(len(myInputs))
			for i := range buf {
				buf[i] = rng.Uint64()
			}
			// Accumulate what we sent so our own share closes the XOR.
			for i, wireIdx := range owned[id] {
				xorWords(wire(circInputs[wireIdx].Wire), buf[i*words:])
			}
			msg := transport.Message{Kind: transport.KindGMWShare, Data: buf}
			if err := node.Send(q, msg); err != nil {
				return nil, fmt.Errorf("send input shares: %w", err)
			}
			transport.PutWords(buf)
		}
		for i, wireIdx := range owned[id] {
			xorWords(wire(circInputs[wireIdx].Wire), myInputs[i*words:])
		}
	}
	for p := 0; p < n; p++ {
		if p == id || len(owned[p]) == 0 {
			continue
		}
		msg, err := coll.RecvKind(transport.KindGMWShare, 0)
		if err != nil {
			return nil, fmt.Errorf("recv input shares: %w", err)
		}
		if len(msg.Data) != len(owned[msg.From])*words {
			return nil, fmt.Errorf("%w: input-share message from %d has %d words, want %d",
				ErrProtocol, msg.From, len(msg.Data), len(owned[msg.From])*words)
		}
		for i, wireIdx := range owned[msg.From] {
			copy(wire(circInputs[wireIdx].Wire), msg.Data[i*words:])
		}
		transport.PutWords(msg.Data)
	}

	tm.inputs.ObserveSince(phaseStart)
	phaseSpan.End()
	phaseStart = time.Now()
	phaseSpan = sp.Child("gmw.and_rounds")

	// --- Rounds 2..: layered evaluation ------------------------------------
	evalLocal := func(gi int) {
		g := gates[gi]
		out, a := wire(g.Out), wire(g.A)
		switch g.Op {
		case circuit.OpXOR:
			b := wire(g.B)
			for l := range out {
				out[l] = a[l] ^ b[l]
			}
		case circuit.OpNOT:
			if id == 0 {
				for l := range out {
					out[l] = ^a[l] // flips every lane
				}
			} else {
				copy(out, a)
			}
		}
	}
	localRounds := circ.LocalByRound()
	andRounds := circ.AndRounds()
	maxBatch := 0
	for _, batch := range andRounds {
		if len(batch) > maxBatch {
			maxBatch = len(batch)
		}
	}
	var deBuf, openedBuf []uint64
	if maxBatch > 0 {
		deBuf = transport.GetWords(2 * maxBatch * words)
		openedBuf = transport.GetWords(2 * maxBatch * words)
		defer transport.PutWords(deBuf)
		defer transport.PutWords(openedBuf)
	}
	for r := 0; r < len(andRounds); r++ {
		for _, gi := range localRounds[r] {
			evalLocal(gi)
		}
		batch := andRounds[r]
		if len(batch) == 0 {
			continue
		}
		// d = x ⊕ a, e = y ⊕ b per lane: gate bi's d words sit at
		// [2·bi·L, (2·bi+1)·L) and its e words right after. One message
		// per peer opens the layer for every lane.
		de := deBuf[:2*len(batch)*words]
		for bi, gi := range batch {
			g := gates[gi]
			t := circ.AndOrdinal(gi) * words
			ta, tb := triples.A[t:t+words], triples.B[t:t+words]
			x, y := wire(g.A), wire(g.B)
			d, e := de[2*bi*words:(2*bi+1)*words], de[(2*bi+1)*words:(2*bi+2)*words]
			for l := range d {
				d[l] = x[l] ^ ta[l]
				e[l] = y[l] ^ tb[l]
			}
		}
		for q := 0; q < n; q++ {
			if q == id {
				continue
			}
			msg := transport.Message{Kind: transport.KindGMWAnd, Seq: uint32(r + 1), Data: de}
			if err := node.Send(q, msg); err != nil {
				return nil, fmt.Errorf("send AND round %d: %w", r, err)
			}
		}
		opened := openedBuf[:len(de)]
		copy(opened, de)
		got, err := coll.GatherKind(transport.KindGMWAnd, uint32(r+1), n-1)
		if err != nil {
			return nil, fmt.Errorf("gather AND round %d: %w", r, err)
		}
		for _, msg := range got {
			if len(msg.Data) != len(de) {
				return nil, fmt.Errorf("%w: AND message from %d has %d words, want %d",
					ErrProtocol, msg.From, len(msg.Data), len(de))
			}
			xorWords(opened, msg.Data)
			transport.PutWords(msg.Data)
		}
		for bi, gi := range batch {
			g := gates[gi]
			t := circ.AndOrdinal(gi) * words
			ta, tb, tc := triples.A[t:t+words], triples.B[t:t+words], triples.C[t:t+words]
			d, e := opened[2*bi*words:(2*bi+1)*words], opened[(2*bi+1)*words:(2*bi+2)*words]
			z := wire(g.Out)
			for l := range z {
				z[l] = d[l]&tb[l] ^ e[l]&ta[l] ^ tc[l]
			}
			if id == 0 {
				for l := range z {
					z[l] ^= d[l] & e[l]
				}
			}
		}
	}
	for _, gi := range localRounds[len(andRounds)] {
		evalLocal(gi)
	}
	tm.andRounds.ObserveSince(phaseStart)
	phaseSpan.SetInt("layers", len(andRounds))
	phaseSpan.End()

	outWires := circ.Outputs()
	outShares := make([]uint64, len(outWires)*words)
	for i, w := range outWires {
		copy(outShares[i*words:], wire(w))
	}
	if keepShared {
		return outShares, nil
	}
	phaseStart = time.Now()
	defer tm.outputs.ObserveSince(phaseStart)
	phaseSpan = sp.Child("gmw.output")
	defer phaseSpan.End()

	// --- Final round: output reconstruction --------------------------------
	for q := 0; q < n; q++ {
		if q == id {
			continue
		}
		msg := transport.Message{Kind: transport.KindGMWOutput, Data: outShares}
		if err := node.Send(q, msg); err != nil {
			return nil, fmt.Errorf("send outputs: %w", err)
		}
	}
	got, err := coll.GatherKind(transport.KindGMWOutput, 0, n-1)
	if err != nil {
		return nil, fmt.Errorf("gather outputs: %w", err)
	}
	final := outShares
	for _, msg := range got {
		if len(msg.Data) != len(final) {
			return nil, fmt.Errorf("%w: output message from %d has %d words, want %d",
				ErrProtocol, msg.From, len(msg.Data), len(final))
		}
		xorWords(final, msg.Data)
		transport.PutWords(msg.Data)
	}
	return final, nil
}

// xorWords XORs src into dst word by word over dst's length.
func xorWords(dst, src []uint64) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] ^= src[i]
	}
}
