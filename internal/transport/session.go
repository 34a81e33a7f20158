package transport

import (
	"fmt"
	"sync"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// SessionMux multiplexes one physical Network into independent logical
// session networks, so several protocol instances (e.g. the GMW executions
// of one secure ε-PPI construction) can share the same set of parties
// without interleaving each other's messages.
//
// Every message sent through a session is stamped with that session's id;
// one pump goroutine per physical node demultiplexes incoming traffic into
// per-(session, node) mailboxes. Messages for a session the local side has
// not opened yet are parked in lazily-created mailboxes, so the two ends
// of a session may open it in any order. Messages for a retired (closed)
// session are dropped.
//
// Each session is a full Network: it has its own traffic counters (so
// per-instance protocol Stats stay exact under concurrency) and its own trace
// span attachment, while Instrument forwards to the physical network so
// registry totals are counted exactly once. Closing a session unblocks its
// receivers without disturbing sibling sessions; closing the mux closes
// the physical network and every session.
type SessionMux struct {
	inner Network

	mu       sync.Mutex
	sessions map[uint32]*sessionNet
	retired  map[uint32]bool
	dead     map[int]bool // physical nodes whose pump has exited
	closed   bool

	pumps sync.WaitGroup
}

// NewSessionMux wraps inner and starts its demultiplexing pumps. The
// caller must not use inner's nodes directly afterwards: all traffic goes
// through sessions, and inner.Recv is owned by the pumps.
func NewSessionMux(inner Network) *SessionMux {
	m := &SessionMux{
		inner:    inner,
		sessions: make(map[uint32]*sessionNet),
		retired:  make(map[uint32]bool),
		dead:     make(map[int]bool),
	}
	for id := 0; id < inner.Size(); id++ {
		m.pumps.Add(1)
		go m.pump(id)
	}
	return m
}

// Size returns the number of parties of the underlying network.
func (m *SessionMux) Size() int { return m.inner.Size() }

// Stats returns the physical network's cumulative traffic across all
// sessions.
func (m *SessionMux) Stats() Stats { return m.inner.Stats() }

// Session returns the logical network with the given id, creating it if
// needed. Ids are chosen by the caller and must be unique over the life of
// the mux: once a session is closed its id is retired and cannot be
// reused (late in-flight messages for it are dropped, so reuse would risk
// cross-talk).
func (m *SessionMux) Session(id uint32) (Network, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("transport: session %d: %w", id, ErrClosed)
	}
	if m.retired[id] {
		return nil, fmt.Errorf("transport: session id %d already retired", id)
	}
	return m.sessionLocked(id), nil
}

// sessionLocked returns (creating if needed) the session net for id.
// Caller holds m.mu.
func (m *SessionMux) sessionLocked(id uint32) *sessionNet {
	s := m.sessions[id]
	if s == nil {
		s = newSessionNet(m, id)
		for node := range m.dead {
			s.boxes[node].close()
		}
		m.sessions[id] = s
	}
	return s
}

// Close shuts down the physical network, waits for the pumps to exit, and
// closes every session. Idempotent.
func (m *SessionMux) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()

	err := m.inner.Close() // unblocks the pumps' Recv
	m.pumps.Wait()

	m.mu.Lock()
	sessions := make([]*sessionNet, 0, len(m.sessions))
	for _, s := range m.sessions {
		sessions = append(sessions, s)
	}
	m.mu.Unlock()
	for _, s := range sessions {
		s.Close()
	}
	return err
}

// pump demultiplexes incoming traffic of one physical node into the
// per-session mailbox for that node. It exits when the physical endpoint
// errors (node closed or transport failure), closing that node's mailbox
// in every session so blocked receivers fail fast instead of hanging.
func (m *SessionMux) pump(node int) {
	defer m.pumps.Done()
	end := m.inner.Node(node)
	for {
		msg, err := end.Recv()
		if err != nil {
			m.mu.Lock()
			m.dead[node] = true
			sessions := make([]*sessionNet, 0, len(m.sessions))
			for _, s := range m.sessions {
				sessions = append(sessions, s)
			}
			m.mu.Unlock()
			for _, s := range sessions {
				s.boxes[node].close()
			}
			return
		}
		m.mu.Lock()
		if m.retired[msg.Session] || m.closed {
			m.mu.Unlock()
			continue // late message for a finished session: drop
		}
		box := m.sessionLocked(msg.Session).boxes[node]
		m.mu.Unlock()
		box.put(msg) // ErrClosed here means the session just retired: drop
	}
}

// retire marks a session id as finished. Called by sessionNet.Close.
func (m *SessionMux) retire(id uint32) {
	m.mu.Lock()
	m.retired[id] = true
	delete(m.sessions, id)
	m.mu.Unlock()
}

// sessionNet is one logical network of a SessionMux. It satisfies
// Network, Instrumenter and SpanCarrier like the built-in transports.
type sessionNet struct {
	mux   *SessionMux
	id    uint32
	stats counter
	boxes []*mailbox
	nodes []*sessionNode
	once  sync.Once
}

func newSessionNet(m *SessionMux, id uint32) *sessionNet {
	s := &sessionNet{mux: m, id: id}
	size := m.inner.Size()
	s.boxes = make([]*mailbox, size)
	s.nodes = make([]*sessionNode, size)
	for i := 0; i < size; i++ {
		s.boxes[i] = newMailbox()
		s.nodes[i] = &sessionNode{sess: s, id: i}
	}
	return s
}

func (s *sessionNet) Node(id int) Node { return s.nodes[id] }
func (s *sessionNet) Size() int        { return len(s.nodes) }
func (s *sessionNet) Stats() Stats     { return s.stats.snapshot() }

// Close retires the session: its id can never be reused, pending receives
// unblock with ErrClosed, and late messages are dropped. The physical
// network and sibling sessions are untouched. Idempotent, always nil.
func (s *sessionNet) Close() error {
	s.once.Do(func() {
		s.mux.retire(s.id)
		for _, mb := range s.boxes {
			mb.close()
		}
	})
	return nil
}

// Instrument forwards to the physical network: registry totals count each
// wire message exactly once no matter how many sessions share the wire.
func (s *sessionNet) Instrument(reg *metrics.Registry) { Instrument(s.mux.inner, reg) }

// Metrics returns the registry installed on the physical network.
func (s *sessionNet) Metrics() *metrics.Registry { return RegistryOf(s.mux.inner) }

// SetTraceSpan attributes this session's traffic (only) to sp, so
// concurrent protocol instances each report exact traffic on their own
// spans.
func (s *sessionNet) SetTraceSpan(sp *trace.Span) { s.stats.setSpan(sp) }

// TraceSpan returns the span attached to this session.
func (s *sessionNet) TraceSpan() *trace.Span { return s.stats.traceSpan() }

// sessionNode is one party's endpoint inside a session.
type sessionNode struct {
	sess *sessionNet
	id   int
}

func (n *sessionNode) ID() int   { return n.id }
func (n *sessionNode) Size() int { return len(n.sess.nodes) }

// Send stamps the session id and active trace id, accounts the message on
// the session's own counters, and forwards it over the physical node.
func (n *sessionNode) Send(to int, m Message) error {
	m.Session = n.sess.id
	n.sess.stats.stamp(&m)
	if err := n.sess.mux.inner.Node(n.id).Send(to, m); err != nil {
		return err
	}
	n.sess.stats.record(m)
	return nil
}

// Recv blocks until a message for this (session, node) arrives, or the
// session — or this node's physical endpoint — is closed.
func (n *sessionNode) Recv() (Message, error) {
	return n.sess.boxes[n.id].take()
}

// Close closes this party's endpoint within the session only: its pending
// receives unblock, other parties and sessions are unaffected.
func (n *sessionNode) Close() error {
	n.sess.boxes[n.id].close()
	return nil
}
