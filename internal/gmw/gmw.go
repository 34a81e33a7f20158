// Package gmw implements a semi-honest n-party GMW protocol over boolean
// circuits, the generic-MPC substrate that evaluates the CountBelow and
// Reveal circuits among the c ε-PPI coordinators (standing in for
// FairplayMP).
//
// Wire values are XOR-shared among the parties. XOR and NOT gates are local;
// each AND gate consumes one Beaver multiplication triple and the AND gates
// of equal depth are opened in a single batched communication round, so the
// online round count is 2 + AND-depth (input sharing, AND rounds, output
// reconstruction), one fewer when the outputs stay shared.
//
// Evaluation is bit-sliced (SIMD within a register): one execution runs
// 64·L independent instances of the same circuit. A wire's share is L
// uint64 words, and bit k of word l belongs to instance 64·l + k. XOR and
// the AND combination are word loops, a NOT is a word complement at party
// 0, and one Beaver word-triple per (AND gate, word) serves 64 instances.
// Each AND layer broadcasts its d/e words in one message per peer, so a
// run takes the circuit's AND depth plus two rounds whatever L is.
//
// Word-triples come from an offline trusted dealer (GenTriplesWideSharded)
// or from pairwise oblivious transfer (GenTriplesOT). A dealer is the
// standard MPC preprocessing abstraction; the online protocol is
// information-theoretically secure against any proper subset of colluding
// semi-honest parties given correct triples. The paper's FairplayMP plays
// the same role with garbled gates; the online communication structure —
// the thing the Figure 6 experiments measure — is preserved.
package gmw

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/transport"
)

var (
	// ErrInputShape reports per-party inputs inconsistent with the circuit.
	ErrInputShape = errors.New("gmw: inputs do not match circuit input wires")
	// ErrTripleShape reports a triple set inconsistent with the circuit.
	ErrTripleShape = errors.New("gmw: triples do not match circuit AND gates")
	// ErrProtocol reports a malformed message from a peer.
	ErrProtocol = errors.New("gmw: protocol violation")
)

// Lanes is the number of circuit instances one word of a wire carries.
const Lanes = 64

// Triples holds one party's XOR shares of bit-sliced Beaver triples: every
// word is a 64-lane triple whose bits satisfy
// (⊕ᵢ Aᵢ[t]) ∧ (⊕ᵢ Bᵢ[t]) = ⊕ᵢ Cᵢ[t] bit-wise. A run over L words per wire
// uses word t·L + l for AND-gate ordinal t, word l.
type Triples struct {
	A, B, C []uint64
}

// newTriples allocates `parties` zeroed triple sets of count words each.
func newTriples(parties, count int) []Triples {
	out := make([]Triples, parties)
	for p := range out {
		out[p] = Triples{
			A: make([]uint64, count),
			B: make([]uint64, count),
			C: make([]uint64, count),
		}
	}
	return out
}

// Mode says what a run does with the circuit's output wires.
type Mode int

const (
	// Open reconstructs the outputs in a final round; every party learns
	// them.
	Open Mode = iota
	// KeepShared skips that round: each party keeps its share words. The
	// secure pipeline uses it when opening would leak (per-identity
	// threshold bits must stay hidden and only a downstream aggregate is
	// ever opened).
	KeepShared
)

// Result carries a run's outputs and execution accounting. Output wire i of
// a run over L words per wire occupies words [i·L, (i+1)·L), and bit k of
// word l is instance 64·l + k's value.
type Result struct {
	// Outputs holds the opened output words; nil under KeepShared.
	Outputs []uint64
	// OutputShares[p] holds party p's XOR-share words of the output wires
	// under KeepShared; nil otherwise. Opening a wire means XOR-ing the
	// parties' words.
	OutputShares [][]uint64
	// Rounds is the number of sequential communication rounds used.
	Rounds int
	// Stats is the transport traffic consumed by the run.
	Stats transport.Stats
}

// Run evaluates 64·words independent instances of circ securely over net
// with caller-provided word-triples (GenTriplesWideSharded, GenTriplesOT),
// words of them per AND gate. inputs[p] holds `words` words per input wire
// owned by party p, wire by wire in the order p's wires appear in
// circ.Inputs(); bit k of a wire's word l is instance 64·l + k's private
// bit. Per-party online randomness derives from seed, so runs are
// reproducible.
func Run(net transport.Network, circ *circuit.Circuit, words int, inputs [][]uint64, triples []Triples, seed int64, mode Mode) (*Result, error) {
	n := net.Size()
	if words < 1 {
		return nil, fmt.Errorf("%w: %d words per wire", ErrInputShape, words)
	}
	if len(inputs) != n {
		return nil, fmt.Errorf("%w: %d input sets for %d parties", ErrInputShape, len(inputs), n)
	}
	owned := make([][]int, n) // owned[p] = indices into circ.Inputs() owned by p
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

	// Phase timers report through the registry attached to the network, if
	// any (transport.Instrument); nil instruments no-op. Phase spans hang
	// under the span attached to the network (transport.AttachSpan), with
	// party 0 recording them as the representative party.
	tm := newTimers(transport.RegistryOf(net))
	tm.runs.Inc()
	rounds := 1 + len(circ.AndRounds())
	if mode == Open {
		rounds++
	}
	runSpan := transport.SpanOf(net)
	runSpan.SetAttrs(
		trace.Int("parties", n),
		trace.Int("words", words),
		trace.Int("instances", Lanes*words),
		trace.Int("and_gates", andCount),
		trace.Int("and_layers", len(circ.AndRounds())),
		trace.Int("rounds", rounds))
	before := net.Stats()
	results := make([][]uint64, n)
	errs := make([]error, n)
	// First failure closes the network so peers blocked on a message that
	// will never arrive fail fast instead of deadlocking.
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
			out, err := runParty(net.Node(p), circ, owned, words, inputs[p], triples[p], rng, tm, sp, mode)
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
	res := &Result{Rounds: rounds}
	if mode == KeepShared {
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
	tm.triples.Add(uint64(need) * Lanes)
	res.Stats = transport.Stats{
		Messages: after.Messages - before.Messages,
		Bytes:    after.Bytes - before.Bytes,
	}
	return res, nil
}

// timers groups the per-phase instruments of one Run. All-nil (no registry
// on the network) no-ops.
type timers struct {
	runs      *metrics.Counter
	rounds    *metrics.Counter
	andLayers *metrics.Counter
	triples   *metrics.Counter
	inputs    *metrics.Histogram
	andRounds *metrics.Histogram
	outputs   *metrics.Histogram
}

func newTimers(reg *metrics.Registry) *timers {
	const name = "eppi_gmw_phase_seconds"
	const help = "Per-party wall time of each GMW protocol phase."
	return &timers{
		runs:      reg.Counter("eppi_gmw_runs_total", "GMW protocol executions."),
		rounds:    reg.Counter("eppi_gmw_rounds_total", "Sequential communication rounds across all GMW runs."),
		andLayers: reg.Counter("eppi_gmw_and_rounds_total", "Batched AND-opening rounds across all GMW runs (non-empty AND layers)."),
		triples:   reg.Counter("eppi_gmw_triples_used_total", "Beaver triple instances consumed across all GMW runs (64 per word-triple)."),
		inputs:    reg.Histogram(name, help, metrics.DefDurationBuckets, metrics.L("phase", "input_share")),
		andRounds: reg.Histogram(name, help, metrics.DefDurationBuckets, metrics.L("phase", "and_rounds")),
		outputs:   reg.Histogram(name, help, metrics.DefDurationBuckets, metrics.L("phase", "output")),
	}
}

// countAndLayers returns the number of non-empty AND layers (the batched
// opening rounds a run actually performs).
func countAndLayers(circ *circuit.Circuit) int {
	layers := 0
	for _, batch := range circ.AndRounds() {
		if len(batch) > 0 {
			layers++
		}
	}
	return layers
}

// runParty executes one party's role across all 64·words lanes and
// returns either the opened output words or (KeepShared) this party's
// share words. Wire w's share occupies words [w·words, (w+1)·words).
func runParty(node transport.Node, circ *circuit.Circuit, owned [][]int, words int, myInputs []uint64, triples Triples, rng *rand.Rand, tm *timers, sp *trace.Span, mode Mode) ([]uint64, error) {
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
	// in owned-order.
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
	if mode == KeepShared {
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
