package transport

import (
	"fmt"
)

// Collector wraps a Node with selective receive: protocols frequently need
// "the next message of kind K (and sequence S)" while other kinds arrive
// interleaved. Out-of-profile messages are parked and replayed on later
// matching calls, preserving per-(kind, seq, sender) FIFO order.
type Collector struct {
	node   Node
	parked []Message
}

// NewCollector wraps node.
func NewCollector(node Node) *Collector {
	return &Collector{node: node}
}

// Send forwards to the underlying node.
func (c *Collector) Send(to int, m Message) error { return c.node.Send(to, m) }

// RecvKind blocks until a message with the given kind and sequence arrives
// (possibly from the parked backlog).
func (c *Collector) RecvKind(kind Kind, seq uint32) (Message, error) {
	for i, m := range c.parked {
		if m.Kind == kind && m.Seq == seq {
			c.parked = append(c.parked[:i], c.parked[i+1:]...)
			return m, nil
		}
	}
	for {
		m, err := c.node.Recv()
		if err != nil {
			return Message{}, err
		}
		if m.Kind == kind && m.Seq == seq {
			return m, nil
		}
		c.parked = append(c.parked, m)
	}
}

// GatherKind collects exactly n messages of (kind, seq), returning them
// indexed by sender. Duplicate senders are an error (protocol violation).
func (c *Collector) GatherKind(kind Kind, seq uint32, n int) (map[int]Message, error) {
	out := make(map[int]Message, n)
	for len(out) < n {
		m, err := c.RecvKind(kind, seq)
		if err != nil {
			return nil, err
		}
		if _, dup := out[m.From]; dup {
			return nil, fmt.Errorf("transport: duplicate %v/seq=%d message from party %d", kind, seq, m.From)
		}
		out[m.From] = m
	}
	return out, nil
}

// Pending returns the number of parked (unconsumed) messages; useful for
// protocol-hygiene assertions in tests.
func (c *Collector) Pending() int { return len(c.parked) }
