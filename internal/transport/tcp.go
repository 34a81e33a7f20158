package transport

import (
	"encoding/gob"
	"fmt"
	"net"
	"sync"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// TCPNetwork is a full-mesh TCP network over loopback: party i maintains a
// gob-framed connection to every other party. It stands in for the paper's
// Netty + protocol-buffers stack and lets the secure protocols run over real
// sockets (examples/distributed and the TCP variants of the Fig. 6
// experiments use it).
type TCPNetwork struct {
	nodes []*tcpNode
	stats counter
}

var _ Network = (*TCPNetwork)(nil)

// NewTCP creates an n-party network, with every pair connected over
// 127.0.0.1. It blocks until the full mesh is established.
func NewTCP(n int) (*TCPNetwork, error) {
	if n <= 0 {
		return nil, fmt.Errorf("transport: party count %d must be > 0", n)
	}
	network := &TCPNetwork{nodes: make([]*tcpNode, n)}
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeListeners(listeners[:i])
			return nil, fmt.Errorf("listen party %d: %w", i, err)
		}
		listeners[i] = l
		network.nodes[i] = &tcpNode{
			id:    i,
			net:   network,
			mb:    newMailbox(),
			conns: make([]*peerConn, n),
		}
	}

	// Party i dials party j for all i < j; party j accepts and learns the
	// dialer's id from a one-message handshake.
	var wg sync.WaitGroup
	errs := make([]error, n)
	for j := 0; j < n; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			seen := make([]bool, j)
			for k := 0; k < j; k++ { // j accepts one conn per lower-id peer
				conn, err := listeners[j].Accept()
				if err != nil {
					errs[j] = fmt.Errorf("accept on party %d: %w", j, err)
					return
				}
				from, pc, err := acceptPeer(conn, j, seen)
				if err != nil {
					errs[j] = err
					conn.Close()
					return
				}
				network.nodes[j].setConn(from, pc)
			}
		}(j)
	}
	dialErr := func() error {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				conn, err := net.Dial("tcp", listeners[j].Addr().String())
				if err != nil {
					return fmt.Errorf("dial %d->%d: %w", i, j, err)
				}
				pc := &peerConn{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}
				if err := pc.enc.Encode(Message{From: i, To: j, Kind: KindControl}); err != nil {
					conn.Close()
					return fmt.Errorf("handshake %d->%d: %w", i, j, err)
				}
				network.nodes[i].setConn(j, pc)
			}
		}
		return nil
	}()
	wg.Wait()
	closeListeners(listeners)
	if dialErr != nil {
		network.Close()
		return nil, dialErr
	}
	for _, err := range errs {
		if err != nil {
			network.Close()
			return nil, err
		}
	}

	// Start reader pumps now that the mesh is complete.
	for _, node := range network.nodes {
		node.startReaders()
	}
	return network, nil
}

// acceptPeer reads the one-message handshake on conn, accepted by party j,
// and returns the dialer's id with the connection framed for use. Only
// lower ids dial j, each once, so it refuses a hello that is not
// KindControl, is addressed to another party, names an id outside [0, j)
// or names one seen already marks; it marks the id it accepts.
func acceptPeer(conn net.Conn, j int, seen []bool) (int, *peerConn, error) {
	dec := gob.NewDecoder(conn)
	var hello Message
	if err := dec.Decode(&hello); err != nil {
		return 0, nil, fmt.Errorf("handshake on party %d: %w", j, err)
	}
	from := hello.From
	switch {
	case hello.Kind != KindControl:
		return 0, nil, fmt.Errorf("handshake on party %d: message kind %v, want control", j, hello.Kind)
	case hello.To != j:
		return 0, nil, fmt.Errorf("handshake on party %d: addressed to party %d", j, hello.To)
	case from < 0 || from >= j:
		return 0, nil, fmt.Errorf("handshake on party %d: dialer id %d outside [0, %d)", j, from, j)
	case seen[from]:
		return 0, nil, fmt.Errorf("handshake on party %d: party %d connected twice", j, from)
	}
	seen[from] = true
	return from, &peerConn{conn: conn, enc: gob.NewEncoder(conn), dec: dec}, nil
}

func closeListeners(ls []net.Listener) {
	for _, l := range ls {
		if l != nil {
			l.Close()
		}
	}
}

// Node returns the endpoint of party id.
func (t *TCPNetwork) Node(id int) Node { return t.nodes[id] }

// Size returns the number of parties.
func (t *TCPNetwork) Size() int { return len(t.nodes) }

// Stats returns cumulative traffic counters.
func (t *TCPNetwork) Stats() Stats { return t.stats.snapshot() }

// Instrument mirrors subsequent traffic into reg (per-kind message and
// byte counters).
func (t *TCPNetwork) Instrument(reg *metrics.Registry) { t.stats.instrument(reg) }

// Metrics returns the registry installed by Instrument, or nil.
func (t *TCPNetwork) Metrics() *metrics.Registry { return t.stats.registry() }

// SetTraceSpan installs sp as the active span: the traffic of subsequent
// sends accumulates on it.
func (t *TCPNetwork) SetTraceSpan(sp *trace.Span) { t.stats.setSpan(sp) }

// TraceSpan returns the span installed by SetTraceSpan, or nil.
func (t *TCPNetwork) TraceSpan() *trace.Span { return t.stats.traceSpan() }

// Close shuts down every node and joins all reader goroutines.
func (t *TCPNetwork) Close() error {
	var first error
	for _, node := range t.nodes {
		if err := node.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

type peerConn struct {
	conn net.Conn
	mu   sync.Mutex // serialises writes
	enc  *gob.Encoder
	dec  *gob.Decoder
}

func (p *peerConn) send(m Message) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.enc.Encode(m)
}

type tcpNode struct {
	id  int
	net *TCPNetwork
	mb  *mailbox

	mu      sync.Mutex
	conns   []*peerConn
	readers sync.WaitGroup
	closed  bool
}

var _ Node = (*tcpNode)(nil)

func (n *tcpNode) setConn(peer int, pc *peerConn) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.conns[peer] = pc
}

func (n *tcpNode) startReaders() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for peer, pc := range n.conns {
		if pc == nil || peer == n.id {
			continue
		}
		n.readers.Add(1)
		go func(peer int, pc *peerConn) {
			defer n.readers.Done()
			for {
				var m Message
				if err := pc.dec.Decode(&m); err != nil {
					return // connection closed
				}
				// The sender is the peer at the other end of this
				// connection, whatever the body says.
				m.From = peer
				if n.mb.put(m) != nil {
					return
				}
			}
		}(peer, pc)
	}
}

func (n *tcpNode) ID() int   { return n.id }
func (n *tcpNode) Size() int { return len(n.net.nodes) }

func (n *tcpNode) Send(to int, m Message) error {
	if to < 0 || to >= len(n.net.nodes) {
		return fmt.Errorf("transport: destination %d out of range [0,%d)", to, len(n.net.nodes))
	}
	m.From = n.id
	m.To = to
	n.net.stats.record(m)
	if to == n.id {
		return n.mb.put(m)
	}
	n.mu.Lock()
	pc := n.conns[to]
	closed := n.closed
	n.mu.Unlock()
	if closed || pc == nil {
		return ErrClosed
	}
	return pc.send(m)
}

func (n *tcpNode) Recv() (Message, error) {
	return n.mb.take()
}

func (n *tcpNode) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	conns := make([]*peerConn, len(n.conns))
	copy(conns, n.conns)
	n.mu.Unlock()

	for _, pc := range conns {
		if pc != nil {
			pc.conn.Close()
		}
	}
	n.mb.close()
	n.readers.Wait()
	return nil
}
