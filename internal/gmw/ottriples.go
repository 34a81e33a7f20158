package gmw

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/ot"
	"repro/internal/prf"
	"repro/internal/trace"
	"repro/internal/transport"
)

// OT-based Beaver-triple preprocessing: replaces the trusted dealer with
// the standard pairwise-OT construction. For each live lane of a
// word-triple each party p samples private bits a_p, b_p; the triple
// secret is
//
//	c = (⊕_p a_p)(⊕_q b_q) = ⊕_p a_p·b_p ⊕ ⊕_{p≠q} a_p·b_q ,
//
// and every cross term a_p·b_q is turned into XOR shares between p and q
// by one 1-out-of-2 OT: the sender p offers (x, x⊕a_p), the receiver q
// selects with b_q and learns x⊕(a_p·b_q); x stays with p. Each party's
// C share is its own a_p·b_p XOR all masks it sent XOR all messages it
// received. Security is semi-honest, inherited from the OT.
//
// Cost: n(n−1) OTs per live lane with 2048-bit exponentiations each —
// orders of magnitude slower than the dealer, which is why the dealer
// remains the default for simulation and OT preprocessing is an explicit
// opt-in (core.TripleOT / eppi.WithOTPreprocessing). Lanes no instance
// uses get the all-zero triple and cost nothing.

// GenTriplesOT runs the pairwise-OT preprocessing among all parties of net
// for a run over `words` words per wire of a circuit with `ands` AND
// gates, of which only the first `lanes` instances carry data: it returns
// ands·words word-triples in Run's layout (ordinal t, word l at t·words +
// l), with a Beaver triple in lane k of word l when 64·l + k < lanes and
// zero in every other lane. A zero triple is sound only where the wire
// values are public, since the opened d and e there are the wire values
// themselves. Party p draws its bits, masks and OT entropy from the
// keystream prf.Key(seed, prf.OT, p) (use distinct seeds per run).
func GenTriplesOT(net transport.Network, ands, words, lanes int, seed int64) ([]Triples, error) {
	n := net.Size()
	if n < 2 {
		return nil, fmt.Errorf("gmw: OT preprocessing needs >= 2 parties, got %d", n)
	}
	if ands < 0 || words < 1 || lanes < 0 || lanes > Lanes*words {
		return nil, fmt.Errorf("gmw: bad OT preprocessing request ands=%d words=%d lanes=%d", ands, words, lanes)
	}
	// The preprocessing span hangs under whatever span the caller attached
	// to the network; it covers all n(n−1) pairwise OT sessions.
	otSpan := transport.SpanOf(net).Child("gmw.ot_preprocess",
		trace.Int("parties", n), trace.Int("word_triples", ands*words), trace.Int("triples", ands*lanes))
	defer otSpan.End()
	group := ot.DefaultGroup()
	out := make([]Triples, n)
	errs := make([]error, n)
	var failOnce sync.Once
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rnd := prf.New(prf.Key(seed, prf.OT, uint64(p)))
			triples, err := otPartyRun(group, net.Node(p), ands, words, lanes, rnd)
			if err != nil {
				errs[p] = fmt.Errorf("party %d: %w", p, err)
				failOnce.Do(func() { net.Close() })
				return
			}
			out[p] = triples
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// GenTriplesWideOT runs the OT preprocessing for count word-triples with
// all 64 lanes live: GenTriplesOT over one word per wire.
func GenTriplesWideOT(net transport.Network, count int, seed int64) ([]Triples, error) {
	return GenTriplesOT(net, count, 1, Lanes, seed)
}

// liveMask returns the lanes of word l that instances below `lanes` use.
func liveMask(l, lanes int) uint64 {
	live := lanes - Lanes*l
	switch {
	case live <= 0:
		return 0
	case live >= Lanes:
		return ^uint64(0)
	}
	return 1<<uint(live) - 1
}

// otPartyRun executes one party's role in the preprocessing. Both sides of
// a session walk the live lanes in the same order — word-triple index
// ascending, lane ascending — so the t-th transfer of a session is the
// same lane at both ends.
func otPartyRun(group ot.Group, node transport.Node, ands, words, lanes int, rnd *prf.Stream) (Triples, error) {
	n := node.Size()
	id := node.ID()
	tr := newTriples(1, ands*words)[0]
	rnd.Words(tr.A)
	rnd.Words(tr.B)
	for i := range tr.A {
		live := liveMask(i%words, lanes)
		tr.A[i] &= live
		tr.B[i] &= live
		tr.C[i] = tr.A[i] & tr.B[i]
	}
	count := ands * lanes
	if count == 0 {
		return tr, nil
	}
	// forLive calls f(i, k) for every live lane k of word-triple i, in
	// transfer order.
	forLive := func(f func(i int, k uint)) {
		for i := range tr.A {
			for live := liveMask(i%words, lanes); live != 0; live &= live - 1 {
				f(i, uint(bits.TrailingZeros64(live)))
			}
		}
	}
	coll := transport.NewCollector(node)

	// sendSession: we are the sender of session (id → peer), offering
	// (x, x ⊕ a) per live lane; our C share absorbs the masks.
	sendSession := func(peer int) error {
		masks := make([]uint64, len(tr.A))
		rnd.Words(masks)
		pairs := make([][2][]byte, 0, count)
		forLive(func(i int, k uint) {
			x := byte(masks[i] >> k & 1)
			pairs = append(pairs, [2][]byte{{x}, {x ^ byte(tr.A[i]>>k&1)}})
			tr.C[i] ^= uint64(x) << k
		})
		seq := uint32(id*n + peer)
		if err := ot.SendBatch(group, coll, peer, pairs, rnd, seq); err != nil {
			return fmt.Errorf("OT send to %d: %w", peer, err)
		}
		return nil
	}
	// recvSession: we are the receiver of session (peer → id), selecting
	// with b per live lane; our C share absorbs the received x ⊕ a_peer·b.
	recvSession := func(peer int) error {
		choices := make([]byte, 0, count)
		forLive(func(i int, k uint) { choices = append(choices, byte(tr.B[i]>>k&1)) })
		seq := uint32(peer*n + id)
		got, err := ot.ReceiveBatch(group, coll, peer, choices, rnd, seq)
		if err != nil {
			return fmt.Errorf("OT recv from %d: %w", peer, err)
		}
		t := 0
		forLive(func(i int, k uint) {
			tr.C[i] ^= uint64(got[t][0]&1) << k
			t++
		})
		return nil
	}

	// Pairwise sessions in deadlock-free order: within each pair the
	// lower id sends first; peers are processed in increasing id order.
	for peer := 0; peer < n; peer++ {
		if peer == id {
			continue
		}
		first, second := sendSession, recvSession
		if id > peer {
			first, second = recvSession, sendSession
		}
		if err := first(peer); err != nil {
			return Triples{}, err
		}
		if err := second(peer); err != nil {
			return Triples{}, err
		}
	}
	return tr, nil
}
