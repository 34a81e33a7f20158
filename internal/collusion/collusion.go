// Package collusion implements the colluding-providers threat analysis
// that the paper defers to its technical report: a coalition of providers
// pools everything it legitimately sees during ε-PPI construction — its
// own inputs plus every protocol message it receives — and tries to learn
// other providers' private membership bits or hidden identity frequencies.
//
// The package provides a recording transport (to capture coalition views),
// the reconstruction attack (which *succeeds* exactly when the coalition
// contains all c coordinators, matching Theorem 4.1's c-secrecy), and
// statistical distinguishers used by tests to verify that sub-threshold
// coalitions learn nothing.
package collusion

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/metrics"
	"repro/internal/secretshare"
	"repro/internal/secsum"
	"repro/internal/transport"
)

// RecordingNetwork wraps a Network and records every message delivered to
// each party — the raw material of a coalition's view.
type RecordingNetwork struct {
	inner transport.Network

	mu       sync.Mutex
	received map[int][]transport.Message
	// scheme is the public parameter set (Z_q, c) of the recorded
	// SecSumShare run, announced by secsum before any message moves.
	scheme secretshare.Scheme

	nodes []*recordingNode
}

var (
	_ transport.Network    = (*RecordingNetwork)(nil)
	_ secsum.ParamObserver = (*RecordingNetwork)(nil)
)

// NewRecording wraps inner.
func NewRecording(inner transport.Network) *RecordingNetwork {
	r := &RecordingNetwork{
		inner:    inner,
		received: make(map[int][]transport.Message),
		nodes:    make([]*recordingNode, inner.Size()),
	}
	for i := range r.nodes {
		r.nodes[i] = &recordingNode{net: r, inner: inner.Node(i)}
	}
	return r
}

// Node returns the recording endpoint of party id.
func (r *RecordingNetwork) Node(id int) transport.Node { return r.nodes[id] }

// Size returns the number of parties.
func (r *RecordingNetwork) Size() int { return r.inner.Size() }

// Stats returns the inner network's counters.
func (r *RecordingNetwork) Stats() transport.Stats { return r.inner.Stats() }

// Close closes the inner network.
func (r *RecordingNetwork) Close() error { return r.inner.Close() }

// Instrument forwards to the inner network when it supports metrics.
func (r *RecordingNetwork) Instrument(reg *metrics.Registry) { transport.Instrument(r.inner, reg) }

// Metrics returns the inner network's registry, or nil.
func (r *RecordingNetwork) Metrics() *metrics.Registry { return transport.RegistryOf(r.inner) }

// ObserveScheme records the public parameters of the SecSumShare run: every
// party knows Z_q and c, so they belong to every coalition's view.
func (r *RecordingNetwork) ObserveScheme(s secretshare.Scheme) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.scheme = s
}

// Received returns copies of all messages party id received, in order.
func (r *RecordingNetwork) Received(id int) []transport.Message {
	r.mu.Lock()
	defer r.mu.Unlock()
	msgs := r.received[id]
	out := make([]transport.Message, len(msgs))
	copy(out, msgs)
	return out
}

func (r *RecordingNetwork) record(id int, m transport.Message) {
	r.mu.Lock()
	defer r.mu.Unlock()
	// Deep-copy the payload: the receiver may reuse buffers.
	cp := m
	if m.Data != nil {
		cp.Data = make([]uint64, len(m.Data))
		copy(cp.Data, m.Data)
	}
	r.received[id] = append(r.received[id], cp)
}

type recordingNode struct {
	net   *RecordingNetwork
	inner transport.Node
}

var _ transport.Node = (*recordingNode)(nil)

func (n *recordingNode) ID() int   { return n.inner.ID() }
func (n *recordingNode) Size() int { return n.inner.Size() }

func (n *recordingNode) Send(to int, m transport.Message) error {
	return n.inner.Send(to, m)
}

func (n *recordingNode) Recv() (transport.Message, error) {
	m, err := n.inner.Recv()
	if err == nil {
		n.net.record(n.inner.ID(), m)
	}
	return m, err
}

func (n *recordingNode) Close() error { return n.inner.Close() }

// Coalition is a set of colluding provider ids and the views they pooled.
type Coalition struct {
	// Members are the colluding provider ids.
	Members []int
	// Views maps member id to its received messages.
	Views map[int][]transport.Message
	// OwnInputs maps member id to its own private input vector.
	OwnInputs map[int][]uint64
	// scheme is the run's public parameter set (zero when the recording
	// saw no SecSumShare run).
	scheme secretshare.Scheme
}

// NewCoalition assembles a coalition's pooled view from a recording
// network after a protocol run.
func NewCoalition(rec *RecordingNetwork, members []int, inputs [][]uint64) (*Coalition, error) {
	c := &Coalition{
		Members:   append([]int(nil), members...),
		Views:     make(map[int][]transport.Message, len(members)),
		OwnInputs: make(map[int][]uint64, len(members)),
	}
	rec.mu.Lock()
	c.scheme = rec.scheme
	rec.mu.Unlock()
	for _, id := range members {
		if id < 0 || id >= rec.Size() {
			return nil, fmt.Errorf("collusion: member %d out of range", id)
		}
		c.Views[id] = rec.Received(id)
		in := make([]uint64, len(inputs[id]))
		copy(in, inputs[id])
		c.OwnInputs[id] = in
	}
	return c, nil
}

// Contains reports membership.
func (c *Coalition) Contains(id int) bool {
	for _, m := range c.Members {
		if m == id {
			return true
		}
	}
	return false
}

// ErrInsufficientView reports a reconstruction attempt by a coalition that
// lacks the required shares.
var ErrInsufficientView = errors.New("collusion: coalition view cannot reconstruct the secret")

// ReconstructFrequencies mounts the coalition's strongest passive attack
// on SecSumShare output secrecy: if (and only if) the coalition contains
// all c coordinators it can sum the coordinator share vectors it holds and
// recover every identity's exact frequency. With any coordinator missing
// the attempt fails — Theorem 4.1's c-secrecy.
func (c *Coalition) ReconstructFrequencies(scheme secretshare.Scheme, numIdentities int) ([]uint64, error) {
	cc := scheme.Shares()
	f := scheme.Field()
	// A coordinator k's final share vector s(k,·) is the sum of the
	// super-shares it received (transport.KindSuperShare messages, bit-packed
	// on the wire) — all of which appear in its recorded view.
	out := make([]uint64, numIdentities)
	for k := 0; k < cc; k++ {
		if !c.Contains(k) {
			return nil, fmt.Errorf("%w: coordinator %d not in coalition", ErrInsufficientView, k)
		}
		vec := make([]uint64, numIdentities)
		for _, msg := range c.Views[k] {
			if msg.Kind != transport.KindSuperShare {
				continue
			}
			super, err := secsum.DecodeSuperShare(f, msg.Data, numIdentities)
			if err != nil {
				return nil, fmt.Errorf("collusion: malformed super-share from %d: %w", msg.From, err)
			}
			for j, v := range super {
				vec[j] = f.Add(vec[j], v)
			}
		}
		for j, v := range vec {
			out[j] = f.Add(out[j], v)
		}
	}
	return out, nil
}

// ShareObservations extracts, per identity, every first-stage share value
// the coalition received from non-members — the marginal an attacker would
// analyse statistically. Used by the indistinguishability tests. A
// first-stage message carries a share key; the shares are its expansion
// (secsum.ExpandShare) in the recorded run's Z_q. A key that does not
// expand — or any key, when the recording saw no SecSumShare run — yields
// no observation.
func (c *Coalition) ShareObservations(numIdentities int) [][]uint64 {
	out := make([][]uint64, numIdentities)
	for _, id := range c.Members {
		for _, msg := range c.Views[id] {
			if msg.Kind != transport.KindShare || c.Contains(msg.From) {
				continue
			}
			shares, err := secsum.ExpandShare(c.scheme.Field(), msg.Data, numIdentities)
			if err != nil {
				continue
			}
			for j, v := range shares {
				out[j] = append(out[j], v)
			}
		}
	}
	return out
}
