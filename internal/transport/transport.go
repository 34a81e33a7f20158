// Package transport provides the message-passing substrate that the ε-PPI
// distributed protocols (SecSumShare, GMW-based CountBelow) run on.
//
// Two interchangeable implementations are provided:
//
//   - an in-memory network (mailbox queues), used by tests, benchmarks and
//     large-scale simulations, and
//   - a real TCP network over loopback (net + gob framing), standing in for
//     the paper's Netty/protobuf stack.
//
// All protocol messages are vectors of field elements plus small routing
// headers, so a single Message type covers every protocol in the repo.
// A network carries one protocol execution: a secure construction opens
// one per execution (SecSumShare, each GMW run) and closes it after.
package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// Kind tags the protocol step a message belongs to.
type Kind uint8

// Message kinds used by the protocols in this repository.
const (
	// KindShare carries first-stage SecSumShare shares to a neighbour.
	KindShare Kind = iota + 1
	// KindSuperShare carries a provider's summed super-share to a coordinator.
	KindSuperShare
	// KindGMWShare carries XOR shares of circuit inputs between MPC parties.
	KindGMWShare
	// KindGMWAnd carries masked d/e values for a batch of AND gates.
	KindGMWAnd
	// KindGMWOutput carries output-wire shares during reconstruction.
	KindGMWOutput
	// KindControl carries protocol-control signalling (e.g. barriers).
	KindControl
	// KindOT carries oblivious-transfer protocol messages (triple
	// preprocessing).
	KindOT
)

// String returns a short name for the kind.
func (k Kind) String() string {
	switch k {
	case KindShare:
		return "share"
	case KindSuperShare:
		return "supershare"
	case KindGMWShare:
		return "gmw-share"
	case KindGMWAnd:
		return "gmw-and"
	case KindGMWOutput:
		return "gmw-output"
	case KindControl:
		return "control"
	case KindOT:
		return "ot"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Message is a routed protocol message. Data carries field elements or
// packed bits depending on Kind; Seq disambiguates rounds or batches.
type Message struct {
	From int
	To   int
	Kind Kind
	Seq  uint32
	Data []uint64
}

// wireSize approximates the serialized size of the message in bytes; used
// for traffic accounting in both transports. The 16-byte header prices
// the routing fields (From, To, Kind, Seq).
func (m Message) wireSize() int {
	return 16 + 8*len(m.Data)
}

// ErrClosed is returned by Send/Recv on a closed node.
var ErrClosed = errors.New("transport: node closed")

// Node is one party's endpoint in a network of Size() parties with ids
// 0..Size()-1.
type Node interface {
	// ID returns this party's index.
	ID() int
	// Size returns the total number of parties.
	Size() int
	// Send delivers m to party `to`. The From field is stamped by the node.
	Send(to int, m Message) error
	// Recv blocks until a message arrives or the node is closed.
	Recv() (Message, error)
	// Close releases the endpoint and unblocks pending Recv calls.
	Close() error
}

// Stats aggregates traffic counters for a network.
type Stats struct {
	Messages uint64
	Bytes    uint64
}

// Network owns a set of nodes and their traffic statistics.
type Network interface {
	// Node returns the endpoint of party id.
	Node(id int) Node
	// Size returns the number of parties.
	Size() int
	// Stats returns a snapshot of cumulative traffic.
	Stats() Stats
	// Close shuts down every node.
	Close() error
}

// Instrumenter is implemented by networks that can mirror their traffic
// accounting into a shared metrics registry.
type Instrumenter interface {
	// Instrument mirrors all subsequent traffic into reg.
	Instrument(reg *metrics.Registry)
	// Metrics returns the registry installed by Instrument (nil before).
	Metrics() *metrics.Registry
}

// Instrument wires n's traffic counters into reg if the network supports
// it (both built-in networks do; wrappers forward). It reports whether the
// wiring happened. A nil registry is a no-op.
func Instrument(n Network, reg *metrics.Registry) bool {
	if reg == nil {
		return false
	}
	in, ok := n.(Instrumenter)
	if !ok {
		return false
	}
	in.Instrument(reg)
	return true
}

// RegistryOf returns the metrics registry attached to n, or nil. Protocols
// (secsum, gmw) use it to report phase timers through whatever registry
// the caller instrumented the network with — no signature changes needed.
func RegistryOf(n Network) *metrics.Registry {
	if in, ok := n.(Instrumenter); ok {
		return in.Metrics()
	}
	return nil
}

// SpanCarrier is implemented by networks whose traffic can be attributed
// to an active trace span.
type SpanCarrier interface {
	// SetTraceSpan installs sp as the active span: the bytes and messages
	// of subsequent sends accumulate on it.
	SetTraceSpan(sp *trace.Span)
	// TraceSpan returns the installed span (nil before SetTraceSpan).
	TraceSpan() *trace.Span
}

// AttachSpan installs sp as the active span of n if the network supports
// it (both built-in networks do; wrappers forward). It reports whether the
// wiring happened. A nil span is a no-op.
func AttachSpan(n Network, sp *trace.Span) bool {
	if sp == nil {
		return false
	}
	sc, ok := n.(SpanCarrier)
	if !ok {
		return false
	}
	sc.SetTraceSpan(sp)
	return true
}

// SpanOf returns the span attached to n, or nil. Protocols (secsum, gmw,
// OT preprocessing) use it to hang their phase spans under whatever span
// the caller attached to the network — the same no-signature-change
// pattern as RegistryOf.
func SpanOf(n Network) *trace.Span {
	if sc, ok := n.(SpanCarrier); ok {
		return sc.TraceSpan()
	}
	return nil
}

// maxKind bounds the per-kind instrument arrays (kinds are small iota
// constants starting at 1).
const maxKind = int(KindOT) + 1

// netInstruments mirrors traffic counters into a registry; installed at
// most once per network via counter.instrument.
type netInstruments struct {
	reg      *metrics.Registry
	messages *metrics.Counter
	bytes    *metrics.Counter
	perKindM [maxKind]*metrics.Counter
	perKindB [maxKind]*metrics.Counter
}

// counter is shared traffic accounting.
type counter struct {
	messages atomic.Uint64
	bytes    atomic.Uint64
	inst     atomic.Pointer[netInstruments]
	span     atomic.Pointer[trace.Span]
}

func (c *counter) instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	in := &netInstruments{
		reg:      reg,
		messages: reg.Counter("eppi_transport_messages_total", "Protocol messages sent across all kinds."),
		bytes:    reg.Counter("eppi_transport_bytes_total", "Approximate wire bytes sent across all kinds."),
	}
	for k := 1; k < maxKind; k++ {
		label := metrics.L("kind", Kind(k).String())
		in.perKindM[k] = reg.Counter("eppi_transport_kind_messages_total", "Protocol messages sent, by message kind.", label)
		in.perKindB[k] = reg.Counter("eppi_transport_kind_bytes_total", "Approximate wire bytes sent, by message kind.", label)
	}
	c.inst.Store(in)
}

func (c *counter) registry() *metrics.Registry {
	if in := c.inst.Load(); in != nil {
		return in.reg
	}
	return nil
}

func (c *counter) setSpan(sp *trace.Span) { c.span.Store(sp) }

func (c *counter) traceSpan() *trace.Span { return c.span.Load() }

func (c *counter) record(m Message) {
	c.messages.Add(1)
	size := uint64(m.wireSize())
	c.bytes.Add(size)
	if in := c.inst.Load(); in != nil {
		in.messages.Inc()
		in.bytes.Add(size)
		if k := int(m.Kind); k > 0 && k < maxKind {
			in.perKindM[k].Inc()
			in.perKindB[k].Add(size)
		}
	}
	if sp := c.span.Load(); sp != nil {
		sp.AddTraffic(1, size)
	}
}

func (c *counter) snapshot() Stats {
	return Stats{Messages: c.messages.Load(), Bytes: c.bytes.Load()}
}

// mailbox is an unbounded FIFO queue with blocking receive. Protocol fan-in
// is unbounded (a coordinator receives from every provider), so an unbounded
// queue is the deadlock-free choice; memory is bounded by protocol design
// (each party sends O(c) vectors per phase).
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Message
	closed bool
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) put(m Message) error {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.closed {
		return ErrClosed
	}
	mb.queue = append(mb.queue, m)
	mb.cond.Signal()
	return nil
}

func (mb *mailbox) take() (Message, error) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for len(mb.queue) == 0 && !mb.closed {
		mb.cond.Wait()
	}
	if len(mb.queue) == 0 {
		return Message{}, ErrClosed
	}
	m := mb.queue[0]
	mb.queue = mb.queue[1:]
	return m, nil
}

func (mb *mailbox) close() {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	mb.closed = true
	mb.cond.Broadcast()
}
