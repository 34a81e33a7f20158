package transport

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// InMemNetwork is a process-local network of n parties backed by mailbox
// queues. It is deterministic enough for tests (FIFO per sender-receiver
// pair) and fast enough to simulate thousands of providers.
type InMemNetwork struct {
	nodes []*inMemNode
	stats counter
}

var _ Network = (*InMemNetwork)(nil)

// NewInMem creates an in-memory network with n parties.
func NewInMem(n int) (*InMemNetwork, error) {
	if n <= 0 {
		return nil, fmt.Errorf("transport: party count %d must be > 0", n)
	}
	net := &InMemNetwork{nodes: make([]*inMemNode, n)}
	for i := range net.nodes {
		net.nodes[i] = &inMemNode{id: i, net: net, mb: newMailbox()}
	}
	return net, nil
}

// Node returns the endpoint of party id.
func (n *InMemNetwork) Node(id int) Node { return n.nodes[id] }

// Size returns the number of parties.
func (n *InMemNetwork) Size() int { return len(n.nodes) }

// Stats returns cumulative traffic counters.
func (n *InMemNetwork) Stats() Stats { return n.stats.snapshot() }

// Instrument mirrors subsequent traffic into reg (per-kind message and
// byte counters); protocols running over this network also pick reg up
// via RegistryOf for their phase timers.
func (n *InMemNetwork) Instrument(reg *metrics.Registry) { n.stats.instrument(reg) }

// Metrics returns the registry installed by Instrument, or nil.
func (n *InMemNetwork) Metrics() *metrics.Registry { return n.stats.registry() }

// SetTraceSpan installs sp as the active span: the traffic of subsequent
// sends accumulates on it.
func (n *InMemNetwork) SetTraceSpan(sp *trace.Span) { n.stats.setSpan(sp) }

// TraceSpan returns the span installed by SetTraceSpan, or nil.
func (n *InMemNetwork) TraceSpan() *trace.Span { return n.stats.traceSpan() }

// Close shuts down all nodes.
func (n *InMemNetwork) Close() error {
	for _, node := range n.nodes {
		node.mb.close()
	}
	return nil
}

type inMemNode struct {
	id  int
	net *InMemNetwork
	mb  *mailbox
}

var _ Node = (*inMemNode)(nil)

func (n *inMemNode) ID() int   { return n.id }
func (n *inMemNode) Size() int { return len(n.net.nodes) }

func (n *inMemNode) Send(to int, m Message) error {
	if to < 0 || to >= len(n.net.nodes) {
		return fmt.Errorf("transport: destination %d out of range [0,%d)", to, len(n.net.nodes))
	}
	m.From = n.id
	m.To = to
	// Copy the payload so sender-side reuse of buffers cannot race with the
	// receiver (slices share backing arrays across goroutines otherwise).
	// The copy comes from the shared word pool; receivers that finish with
	// a message may hand Data back via PutWords.
	if m.Data != nil {
		data := GetWords(len(m.Data))
		copy(data, m.Data)
		m.Data = data
	}
	n.net.stats.record(m)
	return n.net.nodes[to].mb.put(m)
}

func (n *inMemNode) Recv() (Message, error) {
	return n.mb.take()
}

func (n *inMemNode) Close() error {
	n.mb.close()
	return nil
}
