// Package trace is a dependency-free distributed-tracing substrate for the
// ε-PPI stack: context-propagated trace/span identifiers, nested spans with
// attributes, and a bounded ring buffer of recently completed traces that
// can be exported as Chrome trace-event JSON (Perfetto / chrome://tracing)
// or as a human-readable tree dump.
//
// Where the sibling package metrics answers "how much, in aggregate?",
// trace answers "where did *this* run spend its time?" — one QueryPPI
// request through httpapi→index, or one core.Construct run through
// β-calculation → SecSumShare → OT preprocessing → GMW layer evaluation
// (the per-phase breakdown the paper's Figures 4–6 are built from).
//
// Design constraints, matching internal/metrics:
//
//   - zero dependencies beyond the standard library;
//   - disabled tracing is a no-op fast path: StartChild on a context that
//     carries no span returns (ctx, nil) without allocating, and every
//     method on a nil *Span no-ops, so call sites instrument
//     unconditionally and pay nothing when tracing is off;
//   - recording is lock-cheap: ending a span takes one short critical
//     section on the tracer; in-flight annotation touches only the span.
package trace

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one trace (one request, one construction run).
type TraceID uint64

// String renders the id as fixed-width hex, the form used in log records
// and HTTP propagation headers.
func (t TraceID) String() string { return fixedHex(uint64(t)) }

// SpanID identifies one span within a trace.
type SpanID uint64

// String renders the id as fixed-width hex.
func (s SpanID) String() string { return fixedHex(uint64(s)) }

func fixedHex(v uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// ParseID parses the fixed-width hex form produced by String. ok is false
// for anything that is not exactly 16 hex digits.
func ParseID(s string) (uint64, bool) {
	if len(s) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// Attr is one key/value annotation on a span. Values are strings so that
// export needs no reflection; use the constructors for other types.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// A constructs a string attribute.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int constructs an integer attribute.
func Int(key string, v int) Attr { return Attr{Key: key, Value: strconv.Itoa(v)} }

// Uint constructs an unsigned integer attribute.
func Uint(key string, v uint64) Attr { return Attr{Key: key, Value: strconv.FormatUint(v, 10)} }

// SpanData is one completed span as stored in a sealed Trace.
type SpanData struct {
	ID     SpanID    `json:"id"`
	Parent SpanID    `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Attrs  []Attr    `json:"attrs,omitempty"`
	// Messages and Bytes are the transport traffic attributed to the span
	// while it was installed on a network (transport.AttachSpan).
	Messages uint64 `json:"messages,omitempty"`
	Bytes    uint64 `json:"bytes,omitempty"`
}

// Duration is the span's wall-clock extent.
func (s SpanData) Duration() time.Duration { return s.End.Sub(s.Start) }

// Trace is one completed trace: the root span plus every descendant that
// ended before the root. Spans appear in end order (root last). A sealed
// Trace is immutable.
type Trace struct {
	ID    TraceID    `json:"id"`
	Start time.Time  `json:"start"`
	End   time.Time  `json:"end"`
	Spans []SpanData `json:"spans"`
}

// Root returns the root span (the last sealed span), or a zero SpanData
// for a malformed trace.
func (t *Trace) Root() SpanData {
	if len(t.Spans) == 0 {
		return SpanData{}
	}
	return t.Spans[len(t.Spans)-1]
}

// Duration is the root span's wall-clock extent.
func (t *Trace) Duration() time.Duration { return t.End.Sub(t.Start) }

// maxSpansPerTrace bounds the memory one runaway trace can pin (a huge
// search fan-out, a protocol loop). Spans beyond the cap are counted in
// Tracer.Dropped and otherwise discarded.
const maxSpansPerTrace = 8192

// Span is one live span. The zero value is not used directly; spans come
// from Tracer.StartRoot, StartChild, or (*Span).Child. All methods are
// nil-safe: a nil *Span no-ops, which is the disabled-tracing fast path.
type Span struct {
	tracer *Tracer
	trace  TraceID
	id     SpanID
	parent SpanID
	name   string
	start  time.Time
	root   bool

	// Transport traffic attribution; updated lock-free by the transport
	// layer while the span is installed on a network.
	msgs  atomic.Uint64
	bytes atomic.Uint64

	mu    sync.Mutex
	attrs []Attr
	ended bool
}

// TraceID returns the span's trace id (0 for a nil span).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return 0
	}
	return s.trace
}

// ID returns the span id (0 for a nil span).
func (s *Span) ID() SpanID {
	if s == nil {
		return 0
	}
	return s.id
}

// Name returns the span name ("" for a nil span).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// SetAttrs appends annotations to the span.
func (s *Span) SetAttrs(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.mu.Unlock()
}

// Set appends one string annotation. Unlike SetAttrs it never allocates on
// a nil span, so hot paths can call it unconditionally.
func (s *Span) Set(key, value string) {
	if s == nil {
		return
	}
	s.SetAttrs(Attr{Key: key, Value: value})
}

// SetInt appends one integer annotation; nil-safe without allocation.
func (s *Span) SetInt(key string, v int) {
	if s == nil {
		return
	}
	s.SetAttrs(Int(key, v))
}

// SetUint appends one unsigned integer annotation; nil-safe without
// allocation.
func (s *Span) SetUint(key string, v uint64) {
	if s == nil {
		return
	}
	s.SetAttrs(Uint(key, v))
}

// AddTraffic attributes transport traffic (messages, bytes) to the span.
// Lock-free; safe from any goroutine.
func (s *Span) AddTraffic(msgs, bytes uint64) {
	if s == nil {
		return
	}
	s.msgs.Add(msgs)
	s.bytes.Add(bytes)
}

// Child starts a nested span. On a nil receiver it returns nil — the
// no-op chain for disabled tracing.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.tracer.newSpan(s.trace, s.id, name, false, attrs)
}

// End seals the span and records it into the tracer's ring. Ending twice
// is harmless (the second call no-ops); ending a nil span no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()
	s.tracer.record(s, time.Now(), attrs)
}

// ctxKey carries the active *Span in a context. The zero-size key makes
// the no-op lookup allocation-free.
type ctxKey struct{}

// FromContext returns the active span, or nil when the context carries
// none (tracing disabled).
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// StartChild starts a span nested under the context's active span and
// returns a derived context carrying the new span. When the context has no
// span it returns (ctx, nil) without allocating — the disabled-tracing
// fast path that the hot-path benchmarks pin to zero allocations.
func StartChild(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.Child(name, attrs...)
	return context.WithValue(ctx, ctxKey{}, sp), sp
}

// Tracer records spans and retains the most recent completed traces in a
// bounded ring buffer. A nil *Tracer starts only nil spans.
type Tracer struct {
	capacity int
	ids      atomic.Uint64
	seed     uint64

	mu      sync.Mutex
	active  map[TraceID]*building
	ring    []*Trace // completed traces; ring[(head+i)%cap], oldest first
	head    int
	filled  int
	dropped atomic.Uint64
}

// building accumulates the sealed spans of one in-flight trace.
type building struct {
	start time.Time
	spans []SpanData
}

// DefaultCapacity is the ring size used when New is given n <= 0.
const DefaultCapacity = 64

// New returns a tracer retaining the last capacity completed traces
// (DefaultCapacity if capacity <= 0).
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{
		capacity: capacity,
		seed:     uint64(time.Now().UnixNano()),
		active:   make(map[TraceID]*building),
		ring:     make([]*Trace, capacity),
	}
}

// nextID derives a well-mixed 64-bit id from an atomic counter
// (splitmix64), so id generation is lock-free and collision-free within a
// tracer.
func (t *Tracer) nextID() uint64 {
	z := t.seed + t.ids.Add(1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1 // 0 means "no trace/span" on the wire
	}
	return z
}

// StartRoot starts a new trace with a fresh trace id and returns a derived
// context carrying its root span. A nil tracer returns (ctx, nil).
func (t *Tracer) StartRoot(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	sp := t.newSpan(TraceID(t.nextID()), 0, name, true, attrs)
	return context.WithValue(ctx, ctxKey{}, sp), sp
}

// StartRemote starts the local root span of a trace that began elsewhere
// (a propagated trace id from an HTTP header): the span joins trace id
// with the given remote parent span, so the caller's recorder and this one
// share one logical trace. A nil tracer or zero id returns (ctx, nil).
func (t *Tracer) StartRemote(ctx context.Context, name string, id TraceID, parent SpanID, attrs ...Attr) (context.Context, *Span) {
	if t == nil || id == 0 {
		return ctx, nil
	}
	sp := t.newSpan(id, parent, name, true, attrs)
	return context.WithValue(ctx, ctxKey{}, sp), sp
}

func (t *Tracer) newSpan(id TraceID, parent SpanID, name string, root bool, attrs []Attr) *Span {
	sp := &Span{
		tracer: t,
		trace:  id,
		id:     SpanID(t.nextID()),
		parent: parent,
		name:   name,
		start:  time.Now(),
		root:   root,
	}
	if len(attrs) > 0 {
		sp.attrs = append(sp.attrs, attrs...)
	}
	if root {
		t.mu.Lock()
		if _, ok := t.active[id]; !ok {
			t.active[id] = &building{start: sp.start}
		}
		t.mu.Unlock()
	}
	return sp
}

// record seals one span into its trace; a root span seals the whole trace
// into the ring.
func (t *Tracer) record(sp *Span, end time.Time, attrs []Attr) {
	data := SpanData{
		ID:       sp.id,
		Parent:   sp.parent,
		Name:     sp.name,
		Start:    sp.start,
		End:      end,
		Attrs:    attrs,
		Messages: sp.msgs.Load(),
		Bytes:    sp.bytes.Load(),
	}
	t.mu.Lock()
	b, ok := t.active[sp.trace]
	if !ok {
		// The trace's root already sealed (a straggler span) or the span
		// was adopted from a tracer that never opened the trace: count it
		// and move on rather than pinning memory forever.
		t.mu.Unlock()
		t.dropped.Add(1)
		return
	}
	if len(b.spans) >= maxSpansPerTrace && !sp.root {
		t.mu.Unlock()
		t.dropped.Add(1)
		return
	}
	b.spans = append(b.spans, data)
	if sp.root {
		delete(t.active, sp.trace)
		tr := &Trace{ID: sp.trace, Start: sp.start, End: end, Spans: b.spans}
		t.ring[(t.head+t.filled)%t.capacity] = tr
		if t.filled < t.capacity {
			t.filled++
		} else {
			t.head = (t.head + 1) % t.capacity
		}
	}
	t.mu.Unlock()
}

// Recent returns the completed traces currently retained, oldest first.
// The returned slice is fresh; the traces themselves are immutable.
func (t *Tracer) Recent() []*Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Trace, 0, t.filled)
	for i := 0; i < t.filled; i++ {
		out = append(out, t.ring[(t.head+i)%t.capacity])
	}
	return out
}

// Len returns the number of completed traces retained.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.filled
}

// Dropped returns the number of spans discarded because their trace was
// already sealed or hit the per-trace span cap.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}
