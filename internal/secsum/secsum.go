// Package secsum implements SecSumShare, the parallel secure-sum protocol
// of Section IV-B1 of the ε-PPI paper.
//
// Given m providers each holding a private vector over n identities, the
// protocol outputs c share vectors s(0,·)…s(c−1,·), held by c coordinator
// providers, such that for every identity j:
//
//	Σ_k s(k, j) mod q  =  Σ_i M(i, j)   (the identity's frequency)
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
package secsum

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"repro/internal/field"
	"repro/internal/mathx"
	"repro/internal/metrics"
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
	// decode: a wrong word count, an element outside Z_q, set padding bits,
	// or a sender the protocol did not assign.
	ErrMalformedShare = errors.New("secsum: malformed share message")
)

// keyStream is the mathx.DeriveSeed stream label of the share keys (ASCII
// "secsum"), apart from every stream label of the construction pipeline.
const keyStream uint64 = 0x73656373756d

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

// loader writes a provider's private input for identities
// [lo, lo+len(dst)) into dst, each element reduced into Z_q.
type loader func(dst []uint64, lo int)

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
	return run(net, scheme, r, numIDs, func(i int) loader {
		in := inputs[i]
		return func(dst []uint64, lo int) { r.reduce(dst, in[lo:lo+len(dst)]) }
	}, seed)
}

// RunBits is Run over 0/1 inputs held as bitsets, the form construction
// keeps the private matrix in: row(i) is provider i's ⌈n/64⌉ words,
// identity j at bit j%64 of word j/64 (bitmat.Matrix.RowWords). The
// streaming pass reads its input bits straight from the row, so no
// per-identity input vector is ever built.
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
	return run(net, scheme, r, n, func(i int) loader {
		in := row(i)
		return func(dst []uint64, lo int) {
			for j := range dst {
				dst[j] = in[(lo+j)/64] >> ((lo + j) % 64) & 1
			}
		}
	}, seed)
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
		own[k-1] = newShareKey(seed, id, k)
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
	// p mod c == id (our own, sent above, included) as it arrives.
	expected := (m - id + c - 1) / c
	seen := make([]bool, m)
	acc := make([]uint64, numIDs)
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
		if err := r.fold(acc, msg.Data); err != nil {
			return nil, fmt.Errorf("super-share from party %d: %w", from, err)
		}
		transport.PutWords(msg.Data)
	}
	return acc, nil
}

// shareKey is a 16-byte AES key as the two little-endian words of its
// KindShare message.
type shareKey [2]uint64

// newShareKey derives k_{i,k}, the key of the share provider i sends its
// k-th successor, from the run seed — the same seam as the publication
// coin keys (core.coinKey): a given seed reproduces every share, and the
// keys are no harder to predict than the 64-bit seed behind them.
func newShareKey(seed int64, i, k int) shareKey {
	idx := uint64(i)<<32 | uint64(k)<<1
	return shareKey{
		uint64(mathx.DeriveSeed(seed, keyStream, idx)),
		uint64(mathx.DeriveSeed(seed, keyStream, idx|1)),
	}
}

// ring is the arithmetic and wire geometry of Z_q.
type ring struct {
	f    field.Field
	q    uint64
	pow2 bool   // q = 2^w: add and subtract with mask, no modular reduction
	mask uint64 // q − 1 when pow2
	// small: q = 2^w ≤ 2^16, so a share element is two keystream bytes
	// masked to w bits; otherwise it is an 8-byte word, rejection-sampled
	// below max by Field.Rand's rule.
	small bool
	max   uint64
	w     uint // bits per packed element: bits.Len64(q − 1)
	per   int  // elements per packed word: ⌊64/w⌋
	chunk int  // identities per step of the streaming pass: a multiple of 64 and of per
}

func newRing(f field.Field) (*ring, error) {
	q := f.Modulus()
	if q < 2 {
		return nil, fmt.Errorf("secsum: modulus %d", q)
	}
	r := &ring{f: f, q: q, w: uint(bits.Len64(q - 1))}
	r.per = 64 / int(r.w)
	r.pow2 = q&(q-1) == 0
	if r.pow2 {
		r.mask = q - 1
		r.small = q <= 1<<16
	}
	r.max = ^uint64(0) - ^uint64(0)%q
	r.chunk = 64 * r.per
	for r.chunk < 512 {
		r.chunk *= 2
	}
	return r, nil
}

// packedLen is the word count of an n-element super-share: ⌈n/per⌉.
func (r *ring) packedLen(n int) int { return (n + r.per - 1) / r.per }

// reduce writes src into dst reduced into Z_q.
func (r *ring) reduce(dst, src []uint64) {
	src = src[:len(dst)]
	if r.pow2 {
		for i, v := range src {
			dst[i] = v & r.mask
		}
		return
	}
	for i, v := range src {
		dst[i] = r.f.Reduce(v)
	}
}

// add sets a[i] += b[i] (mod q); both in range.
func (r *ring) add(a, b []uint64) {
	b = b[:len(a)]
	if r.pow2 {
		for i, v := range b {
			a[i] = (a[i] + v) & r.mask
		}
		return
	}
	for i, v := range b {
		a[i] = r.f.Add(a[i], v)
	}
}

// sub sets a[i] −= b[i] (mod q); both in range.
func (r *ring) sub(a, b []uint64) {
	b = b[:len(a)]
	if r.pow2 {
		for i, v := range b {
			a[i] = (a[i] - v) & r.mask
		}
		return
	}
	for i, v := range b {
		a[i] = r.f.Sub(a[i], v)
	}
}

// expander streams the share vector a key stands for: element j is the
// j-th draw from the AES-CTR keystream under the key (IV 0) — two bytes,
// little-endian and masked to w bits, when the ring is small, otherwise an
// 8-byte little-endian word taken iff it is below max, reduced mod q. It is
// the one expansion sender, receiver and ExpandShare share, and its output
// does not depend on how the caller chunks the identities.
type expander struct {
	r   *ring
	ctr cipher.Stream
}

func (r *ring) expander(key shareKey) *expander {
	var raw [16]byte
	binary.LittleEndian.PutUint64(raw[:8], key[0])
	binary.LittleEndian.PutUint64(raw[8:], key[1])
	block, err := aes.NewCipher(raw[:])
	if err != nil {
		panic(err) // a 16-byte key is always valid
	}
	var iv [aes.BlockSize]byte
	return &expander{r: r, ctr: cipher.NewCTR(block, iv[:])}
}

// next fills dst with the next len(dst) share elements; ks is keystream
// scratch of at least 8·len(dst) bytes.
func (e *expander) next(dst []uint64, ks []byte) {
	if e.r.small {
		b := ks[:2*len(dst)]
		clear(b)
		e.ctr.XORKeyStream(b, b)
		for i := range dst {
			dst[i] = uint64(binary.LittleEndian.Uint16(b[2*i:])) & e.r.mask
		}
		return
	}
	for i := 0; i < len(dst); {
		// One 8-byte word per missing element: no keystream is drawn that
		// is not consumed, so the element sequence is chunking-independent.
		b := ks[:8*(len(dst)-i)]
		clear(b)
		e.ctr.XORKeyStream(b, b)
		for o := 0; o < len(b); o += 8 {
			if v := binary.LittleEndian.Uint64(b[o:]); v < e.r.max {
				dst[i] = v % e.r.q
				i++
			}
		}
	}
}

// superShare is provider i's round-2 pass: per chunk of identities it loads
// the input, subtracts the expansions of its own c−1 keys (leaving its kept
// share), adds those of the c−1 keys it received, and packs the result
// straight into the wire words — all 2(c−1) CTR streams advance together and
// nothing n-sized but the packed output is allocated. The returned buffer
// comes from transport.GetWords.
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
		acc, tmp := s.acc[:hi-lo], s.tmp[:hi-lo]
		load(acc, lo)
		for _, e := range subs {
			e.next(tmp, s.ks)
			r.sub(acc, tmp)
		}
		for _, e := range adds {
			e.next(tmp, s.ks)
			r.add(acc, tmp)
		}
		r.pack(out[lo/r.per:], acc)
	}
	scratchPool.Put(s)
	return out
}

// scratch is the per-pass working set of superShare, pooled across the m
// concurrent providers (only the ones mid-pass hold one).
type scratch struct {
	acc, tmp []uint64
	ks       []byte
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func (s *scratch) grow(chunk int) {
	if len(s.acc) < chunk {
		s.acc, s.tmp, s.ks = make([]uint64, chunk), make([]uint64, chunk), make([]byte, 8*chunk)
	}
}

// pack writes elems (each < q) into dst[:⌈len(elems)/per⌉]: element e at
// bits (e mod per)·w of word ⌊e/per⌋, every other bit zero.
func (r *ring) pack(dst, elems []uint64) {
	for t := 0; len(elems) > 0; t++ {
		k := min(r.per, len(elems))
		var word uint64
		for s, v := range elems[:k] {
			word |= v << (uint(s) * r.w)
		}
		dst[t] = word
		elems = elems[k:]
	}
}

// fold adds the packed super-share words into acc (mod q). It rejects with
// ErrMalformedShare — never a panic — a payload of other than
// ⌈len(acc)/per⌉ words, an element ≥ q, and set padding bits (the top
// 64 − per·w bits of every word and the unused slots of the last).
func (r *ring) fold(acc, words []uint64) error {
	n := len(acc)
	if want := r.packedLen(n); len(words) != want {
		return fmt.Errorf("%w: %d words, want %d", ErrMalformedShare, len(words), want)
	}
	elem := uint64(1)<<r.w - 1
	for t, word := range words {
		k := min(r.per, n-t*r.per)
		if used := uint(k) * r.w; used < 64 && word>>used != 0 {
			return fmt.Errorf("%w: padding bits set in word %d", ErrMalformedShare, t)
		}
		dst := acc[t*r.per : t*r.per+k]
		for s := range dst {
			v := word & elem
			word >>= r.w
			if v >= r.q {
				return fmt.Errorf("%w: element %d is %d, not below q = %d", ErrMalformedShare, t*r.per+s, v, r.q)
			}
			if r.pow2 {
				dst[s] = (dst[s] + v) & r.mask
			} else {
				dst[s] = r.f.Add(dst[s], v)
			}
		}
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
	out := make([]uint64, n)
	if err := r.fold(out, words); err != nil {
		return nil, err
	}
	return out, nil
}

// Frequencies reconstructs per-identity frequencies from the c coordinator
// share vectors. It exists for tests and for the *trusted-aggregate*
// construction path; the secure path never reconstructs frequencies outside
// the CountBelow circuit.
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
