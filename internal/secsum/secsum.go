// Package secsum implements SecSumShare, the parallel secure-sum protocol
// of Section IV-B1 of the ε-PPI paper.
//
// Given m providers each holding a private vector over n identities, the
// protocol outputs c share vectors s(0,·)…s(c−1,·), held by c coordinator
// providers, such that for every identity j:
//
//	Σ_k s(k, j) mod q  =  Σ_i M(i, j)   (the identity's frequency)
//
// in the ring Z_q, q = 2^w (internal/field).
//
// No party learns any other party's input ((2c−3)-secrecy), and fewer than
// all c coordinator vectors reveal nothing about any frequency (c-secrecy,
// Theorem 4.1 — computational here, with AES-CTR as the pseudorandom
// generator). The protocol runs in two constant-size communication rounds:
//
//  1. share distribution — provider i holds c−1 share keys k_{i,1…c−1} and
//     sends k_{i,k} (16 bytes) to successor (i+k) mod m. Share k of every
//     identity is element j of the key's expansion (expander); the share i
//     keeps is x − Σ_k share_k;
//  2. super-share aggregation — each provider adds the expansions of the
//     keys it received to its kept share, in one streaming pass over
//     identity chunks, and sends the result bit-packed (ring.pack) to
//     coordinator (i mod c), which folds each one in as it arrives.
//
// Both the pass and the fold run on the packed words themselves: element j
// of an expansion is a w-bit field of keystream word ⌊j/per⌋, in the very
// slot it takes on the wire, so one 64-bit field-wise add or subtract (addw,
// subw) handles per = ⌊64/w⌋ identities.
package secsum

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"repro/internal/field"
	"repro/internal/metrics"
	"repro/internal/prf"
	"repro/internal/secretshare"
	"repro/internal/trace"
	"repro/internal/transport"
)

var (
	// ErrTooFewProviders reports m < c: the ring cannot host c distinct
	// share destinations per provider.
	ErrTooFewProviders = errors.New("secsum: need at least c providers")
	// ErrInputShape reports malformed provider inputs.
	ErrInputShape = errors.New("secsum: malformed inputs")
	// ErrMalformedShare reports a share key or super-share that does not
	// decode: a wrong word count, set padding bits, or a sender the protocol
	// did not assign.
	ErrMalformedShare = errors.New("secsum: malformed share message")
)

// Result carries the protocol output and execution accounting.
type Result struct {
	// CoordinatorShares[k] is the share vector s(k, ·) held by coordinator
	// provider k, one element per identity.
	CoordinatorShares [][]uint64
	// Rounds is the number of sequential communication rounds (always 2).
	Rounds int
	// Stats is the transport traffic consumed by this run.
	Stats transport.Stats
}

// ParamObserver is implemented by networks that keep the parties' views of
// a run (collusion.RecordingNetwork). Run hands it the protocol's public
// parameters — Z_q and c, which every party knows — before any message
// moves, so a recorded share key can be expanded into the shares it stands
// for.
type ParamObserver interface {
	ObserveScheme(secretshare.Scheme)
}

// loader writes a provider's private input, packed, into words
// [t, t+len(dst)) of its super-share layout (ring.pack). Slots past the last
// identity may hold anything: the pass never lets them reach the wire.
type loader func(dst []uint64, t int)

// Run executes SecSumShare over net. inputs[i] is provider i's private
// vector (one value per identity; for ε-PPI these are 0/1 membership bits,
// but any values sum correctly mod q). The scheme fixes c and the ring.
//
// Run drives all m providers as goroutines over the supplied network; it is
// used with the in-memory transport for simulation and with the TCP
// transport for realistic distributed runs.
func Run(net transport.Network, scheme secretshare.Scheme, inputs [][]uint64, seed int64) (*Result, error) {
	m := net.Size()
	if err := checkRing(m, scheme.Shares()); err != nil {
		return nil, err
	}
	if len(inputs) != m {
		return nil, fmt.Errorf("%w: %d input vectors for %d providers", ErrInputShape, len(inputs), m)
	}
	numIDs := len(inputs[0])
	for i, in := range inputs {
		if len(in) != numIDs {
			return nil, fmt.Errorf("%w: provider %d has %d identities, provider 0 has %d",
				ErrInputShape, i, len(in), numIDs)
		}
	}
	r, err := newRing(scheme.Field())
	if err != nil {
		return nil, err
	}
	return run(net, scheme, r, numIDs, func(i int) loader { return r.valueLoader(inputs[i]) }, seed)
}

// RunBits is Run over 0/1 inputs held as bitsets, the form construction
// keeps the private matrix in: row(i) is provider i's ⌈n/64⌉ words,
// identity j at bit j%64 of word j/64 (bitmat.Matrix.RowWords). The
// streaming pass spreads each packed word's per input bits straight from
// the row, so no per-identity input vector is ever built.
func RunBits(net transport.Network, scheme secretshare.Scheme, n int, row func(i int) []uint64, seed int64) (*Result, error) {
	m := net.Size()
	if err := checkRing(m, scheme.Shares()); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("%w: %d identities", ErrInputShape, n)
	}
	words := (n + 63) / 64
	for i := 0; i < m; i++ {
		if got := len(row(i)); got != words {
			return nil, fmt.Errorf("%w: provider %d has %d words, want %d", ErrInputShape, i, got, words)
		}
	}
	r, err := newRing(scheme.Field())
	if err != nil {
		return nil, err
	}
	return run(net, scheme, r, n, func(i int) loader { return r.bitLoader(row(i)) }, seed)
}

// valueLoader loads Run's input vector, packing it.
func (r *ring) valueLoader(in []uint64) loader {
	return func(dst []uint64, t int) {
		lo := t * r.per
		r.pack(dst, in[lo:min(lo+len(dst)*r.per, len(in))])
	}
}

// bitLoader loads RunBits' input row, spreading the per bits of each packed
// word from the row bits [t·per, (t+1)·per) — a window that may straddle two
// row words.
func (r *ring) bitLoader(row []uint64) loader {
	return func(dst []uint64, t int) {
		for k := range dst {
			b := (t + k) * r.per
			w, off := b/64, uint(b%64)
			win := row[w] >> off
			if off+uint(r.per) > 64 && w+1 < len(row) {
				win |= row[w+1] << (64 - off)
			}
			dst[k] = r.spreadBits(win)
		}
	}
}

func checkRing(m, c int) error {
	if m < c {
		return fmt.Errorf("%w: m=%d c=%d", ErrTooFewProviders, m, c)
	}
	return nil
}

// run drives the m providers of one protocol execution; input(i) is
// provider i's private vector.
func run(net transport.Network, scheme secretshare.Scheme, r *ring, numIDs int, input func(i int) loader, seed int64) (*Result, error) {
	m := net.Size()
	c := scheme.Shares()
	if o, ok := net.(ParamObserver); ok {
		o.ObserveScheme(scheme)
	}

	// Phase timers report through whatever registry the caller attached to
	// the network (transport.Instrument); with no registry every instrument
	// is a nil no-op. Likewise, phase spans hang under whatever span the
	// caller attached (transport.AttachSpan); party 0 records them as the
	// representative provider (it plays every role, coordinator included).
	tm := newTimers(transport.RegistryOf(net))
	tm.runs.Inc()
	runSpan := transport.SpanOf(net)
	runSpan.SetAttrs(trace.Int("parties", m), trace.Int("identities", numIDs), trace.Int("rounds", 2))
	before := net.Stats()
	coordShares := make([][]uint64, c)
	errs := make([]error, m)
	// On the first party failure the network is closed so that peers
	// blocked in Recv fail fast instead of hanging on a peer that will
	// never send (crashed node, dropped message).
	var failOnce sync.Once
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var sp *trace.Span
			if i == 0 {
				sp = runSpan
			}
			shares, err := runProvider(net.Node(i), r, c, numIDs, input(i), seed, tm, sp)
			if err != nil {
				errs[i] = fmt.Errorf("provider %d: %w", i, err)
				failOnce.Do(func() { net.Close() })
				return
			}
			if shares != nil {
				coordShares[i] = shares
			}
		}(i)
	}
	wg.Wait()
	// Report a real protocol error in preference to the cascade of
	// closed-network errors it triggers.
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
	after := net.Stats()
	tm.rounds.Add(2)
	return &Result{
		CoordinatorShares: coordShares,
		Rounds:            2,
		Stats: transport.Stats{
			Messages: after.Messages - before.Messages,
			Bytes:    after.Bytes - before.Bytes,
		},
	}, nil
}

// timers groups the per-phase instruments of one Run. The zero value (all
// nil) no-ops, so uninstrumented networks cost nothing but the time reads.
type timers struct {
	runs       *metrics.Counter
	rounds     *metrics.Counter
	distribute *metrics.Histogram
	aggregate  *metrics.Histogram
	coordinate *metrics.Histogram
}

func newTimers(reg *metrics.Registry) *timers {
	const name = "eppi_secsum_phase_seconds"
	const help = "Per-provider wall time of each SecSumShare phase."
	return &timers{
		runs:       reg.Counter("eppi_secsum_runs_total", "SecSumShare protocol executions."),
		rounds:     reg.Counter("eppi_secsum_rounds_total", "Sequential communication rounds across all SecSumShare runs."),
		distribute: reg.Histogram(name, help, metrics.DefDurationBuckets, metrics.L("phase", "distribute")),
		aggregate:  reg.Histogram(name, help, metrics.DefDurationBuckets, metrics.L("phase", "aggregate")),
		coordinate: reg.Histogram(name, help, metrics.DefDurationBuckets, metrics.L("phase", "coordinate")),
	}
}

// runProvider executes one provider's role. Coordinators (id < c) return
// their aggregated share vector; other providers return nil. sp, when
// non-nil (party 0), parents per-phase child spans.
func runProvider(node transport.Node, r *ring, c, numIDs int, load loader, seed int64, tm *timers, sp *trace.Span) ([]uint64, error) {
	m := node.Size()
	id := node.ID()

	// Round 1: key k_{id,k} to successor (id+k) mod m, k = 1…c−1.
	phaseStart := time.Now()
	phaseSpan := sp.Child("secsum.distribute")
	own := make([]shareKey, c-1)
	for k := 1; k < c; k++ {
		own[k-1] = shareKeyOf(prf.Key(seed, prf.Share, uint64(id)<<31|uint64(k)))
		msg := transport.Message{Kind: transport.KindShare, Seq: uint32(k), Data: own[k-1][:]}
		if err := node.Send((id+k)%m, msg); err != nil {
			return nil, fmt.Errorf("send share %d: %w", k, err)
		}
	}
	tm.distribute.ObserveSince(phaseStart)
	phaseSpan.End()
	phaseStart = time.Now()
	phaseSpan = sp.Child("secsum.aggregate")

	// Receive the c−1 predecessors' keys: k_{id−k,k} from (id−k) mod m.
	coll := transport.NewCollector(node)
	in := make([]shareKey, c-1)
	for k := 1; k < c; k++ {
		msg, err := coll.RecvKind(transport.KindShare, uint32(k))
		if err != nil {
			return nil, fmt.Errorf("recv share %d: %w", k, err)
		}
		if wantFrom := ((id-k)%m + m) % m; msg.From != wantFrom {
			return nil, fmt.Errorf("%w: share %d from party %d, want %d", ErrMalformedShare, k, msg.From, wantFrom)
		}
		if len(msg.Data) != len(shareKey{}) {
			return nil, fmt.Errorf("%w: share %d has %d words, want %d", ErrMalformedShare, k, len(msg.Data), len(shareKey{}))
		}
		copy(in[k-1][:], msg.Data)
		transport.PutWords(msg.Data)
	}

	// Round 2: the packed super-share to coordinator (id mod c).
	super := r.superShare(numIDs, load, own, in)
	if err := node.Send(id%c, transport.Message{Kind: transport.KindSuperShare, Data: super}); err != nil {
		return nil, fmt.Errorf("send super-share: %w", err)
	}
	if id >= c {
		// A send to another party hands over a copy (in-memory) or the
		// encoded bytes (TCP); only a coordinator's send to itself may
		// deliver this very buffer.
		transport.PutWords(super)
	}
	tm.aggregate.ObserveSince(phaseStart)
	phaseSpan.End()

	if id >= c {
		return nil, nil
	}
	phaseStart = time.Now()
	defer tm.coordinate.ObserveSince(phaseStart)
	phaseSpan = sp.Child("secsum.coordinate")
	defer phaseSpan.End()

	// Coordinator role: fold in the super-share of every provider p with
	// p mod c == id (our own, sent above, included) as it arrives, into a
	// packed accumulator unpacked once at the end.
	expected := (m - id + c - 1) / c
	seen := make([]bool, m)
	acc := make([]uint64, r.packedLen(numIDs))
	for got := 0; got < expected; got++ {
		msg, err := coll.RecvKind(transport.KindSuperShare, 0)
		if err != nil {
			return nil, fmt.Errorf("recv super-share: %w", err)
		}
		from := msg.From
		switch {
		case from < 0 || from >= m || from%c != id:
			return nil, fmt.Errorf("%w: super-share from party %d not assigned to coordinator %d", ErrMalformedShare, from, id)
		case seen[from]:
			return nil, fmt.Errorf("%w: duplicate super-share from party %d", ErrMalformedShare, from)
		}
		seen[from] = true
		if err := r.fold(acc, msg.Data, numIDs); err != nil {
			return nil, fmt.Errorf("super-share from party %d: %w", from, err)
		}
		transport.PutWords(msg.Data)
	}
	shares := make([]uint64, numIDs)
	r.unpack(shares, acc)
	return shares, nil
}

// shareKey is a 16-byte AES key as the two little-endian words of its
// KindShare message. Provider i's key for its k-th successor is
// k_{i,k} = prf.Key(seed, prf.Share, i<<31 | k): a given seed reproduces
// every share, and the keys are no harder to predict than the 64-bit seed
// behind them.
type shareKey [2]uint64

func shareKeyOf(key [16]byte) shareKey {
	return shareKey{binary.LittleEndian.Uint64(key[:8]), binary.LittleEndian.Uint64(key[8:])}
}

// ring is the arithmetic and wire geometry of Z_q, q = 2^w.
type ring struct {
	q    uint64
	w    uint   // bits per packed element: log2 q
	per  int    // elements per packed word: ⌊64/w⌋
	full uint64 // the per fields of a word: its low per·w bits
	high uint64 // the top bit of each of the per fields
	// spread[b] has bit i of b at bit i·w (the low bit of field i), i < 8.
	spread [256]uint64
	chunk  int // identities per step of the streaming pass: a multiple of 64 and of per
}

func newRing(f field.Field) (*ring, error) {
	q := f.Modulus()
	if q < 2 {
		return nil, fmt.Errorf("secsum: modulus %d", q)
	}
	r := &ring{q: q, w: uint(bits.Len64(q - 1))}
	r.per = 64 / int(r.w)
	r.full = ^uint64(0) >> (64 - uint(r.per)*r.w)
	for s := 0; s < r.per; s++ {
		r.high |= 1 << (uint(s)*r.w + r.w - 1)
	}
	for b := range r.spread {
		for i := uint(0); i < 8; i++ {
			r.spread[b] |= uint64(b>>i&1) << (i * r.w)
		}
	}
	r.chunk = 64 * r.per
	for r.chunk < 512 {
		r.chunk *= 2
	}
	return r, nil
}

// packedLen is the word count of an n-element super-share: ⌈n/per⌉.
func (r *ring) packedLen(n int) int { return (n + r.per - 1) / r.per }

// tail masks the used slots of the last word of an n-element super-share,
// n > 0.
func (r *ring) tail(n int) uint64 {
	k := n - (r.packedLen(n)-1)*r.per
	return ^uint64(0) >> (64 - uint(k)*r.w)
}

// spreadBits returns the packed word whose field s is bit s of win, s < per.
// Higher bits of win land above the per fields or in none.
func (r *ring) spreadBits(win uint64) uint64 {
	x := r.spread[win&0xff]
	for b := 8; b < r.per; b += 8 {
		x |= r.spread[win>>uint(b)&0xff] << (uint(b) * r.w)
	}
	return x
}

// addw and subw add and subtract packed words field by field mod 2^w, h
// the top bit of each field: the low w−1 bits of every field are summed
// with the top bits cleared, so no carry or borrow crosses into the next
// field, and the top bits are restored by XOR. Bits above the fields carry
// garbage the caller masks off.
func addw(x, y, h uint64) uint64 { return ((x &^ h) + (y &^ h)) ^ ((x ^ y) & h) }

func subw(x, y, h uint64) uint64 { return ((x | h) - (y &^ h)) ^ ((x ^ ^y) & h) }

// expander streams the share vector a key stands for, a function of the
// AES-CTR keystream under the key (IV 0) read as little-endian 8-byte
// words: element j is field j mod per of keystream word ⌊j/per⌋ — the slot
// it takes in a packed super-share — and the top 64 − per·w bits of every
// word are discarded. It is the one expansion sender, receiver and
// ExpandShare share, and its output does not depend on how the caller
// chunks the identities.
type expander struct {
	r  *ring
	ks *prf.Stream
	// cur holds the left fields of the last keystream word drawn that no
	// element has taken yet, lowest first (next only).
	cur  uint64
	left int
}

func (r *ring) expander(key shareKey) *expander {
	var raw [16]byte
	binary.LittleEndian.PutUint64(raw[:8], key[0])
	binary.LittleEndian.PutUint64(raw[8:], key[1])
	return &expander{r: r, ks: prf.New(raw)}
}

// stream fills b with the next len(b) keystream bytes and returns it.
func (e *expander) stream(b []byte) []byte {
	e.ks.Read(b)
	return b
}

// next fills dst with the next len(dst) share elements; ks is keystream
// scratch of at least 8·len(dst) bytes.
func (e *expander) next(dst []uint64, ks []byte) {
	r := e.r
	b := e.stream(ks[:8*((max(len(dst)-e.left, 0)+r.per-1)/r.per)])
	for i := range dst {
		if e.left == 0 {
			e.cur, e.left = binary.LittleEndian.Uint64(b), r.per
			b = b[8:]
		}
		dst[i] = e.cur & (r.q - 1)
		e.cur >>= r.w
		e.left--
	}
}

// superShare is provider i's round-2 pass: per chunk of identities it loads
// the packed input, subtracts the expansions of its own c−1 keys (leaving
// its kept share) and adds those of the c−1 keys it received, straight in
// the wire words — all 2(c−1) CTR streams advance together and nothing
// n-sized but the packed output is allocated. The returned buffer comes
// from transport.GetWords.
func (r *ring) superShare(n int, load loader, own, in []shareKey) []uint64 {
	out := transport.GetWords(r.packedLen(n))
	subs := make([]*expander, len(own))
	for k, key := range own {
		subs[k] = r.expander(key)
	}
	adds := make([]*expander, len(in))
	for k, key := range in {
		adds[k] = r.expander(key)
	}
	s := scratchPool.Get().(*scratch)
	s.grow(r.chunk)
	for lo := 0; lo < n; lo += r.chunk {
		hi := min(lo+r.chunk, n)
		dst := out[lo/r.per : r.packedLen(hi)]
		load(dst, lo/r.per)
		// Each keystream word is the per share elements of its packed slot.
		h, full, ks := r.high, r.full, s.ks[:8*len(dst)]
		for _, e := range subs {
			b := e.stream(ks)
			for t := range dst {
				dst[t] = subw(dst[t], binary.LittleEndian.Uint64(b[8*t:]), h)
			}
		}
		for _, e := range adds {
			b := e.stream(ks)
			for t := range dst {
				dst[t] = addw(dst[t], binary.LittleEndian.Uint64(b[8*t:]), h)
			}
		}
		for t := range dst {
			dst[t] &= full
		}
	}
	if n > 0 {
		out[len(out)-1] &= r.tail(n)
	}
	scratchPool.Put(s)
	return out
}

// scratch is the keystream buffer of one superShare pass, pooled across
// the m concurrent providers (only the ones mid-pass hold one).
type scratch struct{ ks []byte }

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func (s *scratch) grow(chunk int) {
	if len(s.ks) < 8*chunk {
		s.ks = make([]byte, 8*chunk)
	}
}

// pack writes elems, each reduced into Z_q, into dst[:⌈len(elems)/per⌉]:
// element e at bits (e mod per)·w of word ⌊e/per⌋, every other bit zero.
func (r *ring) pack(dst, elems []uint64) {
	for t := 0; len(elems) > 0; t++ {
		k := min(r.per, len(elems))
		var word uint64
		for s, v := range elems[:k] {
			word |= (v & (r.q - 1)) << (uint(s) * r.w)
		}
		dst[t] = word
		elems = elems[k:]
	}
}

// unpack is pack's inverse: it fills dst with the first len(dst) elements
// of the packed words.
func (r *ring) unpack(dst, words []uint64) {
	for t := 0; len(dst) > 0; t++ {
		k := min(r.per, len(dst))
		word := words[t]
		for s := range dst[:k] {
			dst[s] = word & (r.q - 1)
			word >>= r.w
		}
		dst = dst[k:]
	}
}

// fold adds the packed super-share words of an n-identity run into the
// packed accumulator acc, field by field mod q. It rejects with
// ErrMalformedShare — never a panic — a payload of other than len(acc)
// words and set padding bits (the top 64 − per·w bits of every word and the
// unused slots of the last); every w-bit field holds an element of Z_q.
func (r *ring) fold(acc, words []uint64, n int) error {
	if len(words) != len(acc) {
		return fmt.Errorf("%w: %d words, want %d", ErrMalformedShare, len(words), len(acc))
	}
	if last := len(words) - 1; last >= 0 && words[last]&^r.tail(n) != 0 {
		return fmt.Errorf("%w: padding bits set in word %d", ErrMalformedShare, last)
	}
	for t, word := range words {
		if word&^r.full != 0 {
			return fmt.Errorf("%w: padding bits set in word %d", ErrMalformedShare, t)
		}
		acc[t] = addw(acc[t], word, r.high)
	}
	return nil
}

// ExpandShare returns the first n share elements the key of a KindShare
// message (its two words) stands for, in Z_q of field f — the expansion its
// sender subtracted and its receiver added.
func ExpandShare(f field.Field, key []uint64, n int) ([]uint64, error) {
	r, err := newRing(f)
	if err != nil {
		return nil, err
	}
	var k shareKey
	if len(key) != len(k) {
		return nil, fmt.Errorf("%w: %d-word key", ErrMalformedShare, len(key))
	}
	if n < 0 {
		return nil, fmt.Errorf("%w: %d identities", ErrMalformedShare, n)
	}
	copy(k[:], key)
	out := make([]uint64, n)
	ks := make([]byte, 8*r.chunk)
	e := r.expander(k)
	for lo := 0; lo < n; lo += r.chunk {
		e.next(out[lo:min(lo+r.chunk, n)], ks)
	}
	return out, nil
}

// DecodeSuperShare unpacks an n-identity super-share from its KindSuperShare
// words, with the checks a coordinator applies before folding one in.
func DecodeSuperShare(f field.Field, words []uint64, n int) ([]uint64, error) {
	r, err := newRing(f)
	if err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("%w: %d identities", ErrMalformedShare, n)
	}
	acc := make([]uint64, r.packedLen(n))
	if err := r.fold(acc, words, n); err != nil {
		return nil, err
	}
	out := make([]uint64, n)
	r.unpack(out, acc)
	return out, nil
}

// Frequencies reconstructs per-identity frequencies from the c coordinator
// share vectors, the check the tests hold a run to; construction never
// reconstructs a frequency outside the CountBelow circuit.
func Frequencies(scheme secretshare.Scheme, coordShares [][]uint64) ([]uint64, error) {
	c := scheme.Shares()
	if len(coordShares) != c {
		return nil, fmt.Errorf("secsum: %d coordinator vectors, want %d", len(coordShares), c)
	}
	if c == 0 || len(coordShares[0]) == 0 {
		return nil, nil
	}
	f := scheme.Field()
	n := len(coordShares[0])
	out := make([]uint64, n)
	for k, vec := range coordShares {
		if len(vec) != n {
			return nil, fmt.Errorf("secsum: coordinator %d vector length %d, want %d", k, len(vec), n)
		}
		for j, v := range vec {
			out[j] = f.Add(out[j], f.Reduce(v))
		}
	}
	return out, nil
}
