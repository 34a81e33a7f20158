// Package provider models an autonomous provider (a hospital in the
// paper's healthcare scenario): a private record store with a local
// access-control subsystem, the Delegate intake operation, and the local
// half of AuthSearch.
package provider

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

var (
	// ErrUnauthorized reports an AuthSearch by a searcher without a grant.
	ErrUnauthorized = errors.New("provider: searcher not authorized")
	// ErrBadDelegation reports an invalid Delegate call.
	ErrBadDelegation = errors.New("provider: invalid delegation")
)

// Record is one delegated personal record (e.g. a medical record).
type Record struct {
	// Owner is the identity t_j of the record's owner.
	Owner string
	// Kind labels the record type (e.g. "radiology", "prescription").
	Kind string
	// Body is the record payload.
	Body string
}

// Provider is one autonomous provider node. All methods are safe for
// concurrent use.
type Provider struct {
	id   int
	name string

	mu      sync.RWMutex
	records map[string][]Record
	epsilon map[string]float64 // per-owner privacy degree from Delegate
	granted map[string]bool    // searchers allowed by the ACL
}

// New creates an empty provider with the given network id and display name.
func New(id int, name string) *Provider {
	return &Provider{
		id:      id,
		name:    name,
		records: make(map[string][]Record),
		epsilon: make(map[string]float64),
		granted: make(map[string]bool),
	}
}

// ID returns the provider's network id (its row in the membership matrix).
func (p *Provider) ID() int { return p.id }

// Delegate stores a record on behalf of its owner together with the owner's
// privacy degree ε ∈ [0,1] (the paper's Delegate(⟨t_j, ε_j⟩, p_i)). If the
// owner has delegated before with a different ε, the maximum is kept: a
// privacy preference can be strengthened but is never silently weakened.
func (p *Provider) Delegate(rec Record, epsilon float64) error {
	if rec.Owner == "" {
		return fmt.Errorf("%w: empty owner identity", ErrBadDelegation)
	}
	if epsilon < 0 || epsilon > 1 {
		return fmt.Errorf("%w: ε=%v out of [0,1]", ErrBadDelegation, epsilon)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.records[rec.Owner] = append(p.records[rec.Owner], rec)
	if cur, ok := p.epsilon[rec.Owner]; !ok || epsilon > cur {
		p.epsilon[rec.Owner] = epsilon
	}
	return nil
}

// Grant authorizes a searcher in the local access-control subsystem.
func (p *Provider) Grant(searcher string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.granted[searcher] = true
}

// Revoke removes a searcher's authorization.
func (p *Provider) Revoke(searcher string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.granted, searcher)
}

// AuthSearch is the provider half of the second search phase: the searcher
// authenticates, the ACL authorizes, and only then is the local repository
// searched. An authorized search for an absent owner returns an empty slice
// (the searcher has hit one of the index's false positives).
func (p *Provider) AuthSearch(searcher, owner string) ([]Record, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if !p.granted[searcher] {
		return nil, fmt.Errorf("%w: %q at provider %q", ErrUnauthorized, searcher, p.name)
	}
	recs := p.records[owner]
	out := make([]Record, len(recs))
	copy(out, recs)
	return out, nil
}

// Has reports whether the provider truly holds records of owner (private
// information; used to build the membership matrix during construction).
func (p *Provider) Has(owner string) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.records[owner]) > 0
}

// Owners returns the identities delegated to this provider, sorted.
func (p *Provider) Owners() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]string, 0, len(p.records))
	for owner := range p.records {
		out = append(out, owner)
	}
	sort.Strings(out)
	return out
}

// Epsilon returns the owner's registered privacy degree and whether the
// owner has delegated here.
func (p *Provider) Epsilon(owner string) (float64, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	e, ok := p.epsilon[owner]
	return e, ok
}

// LocalVector returns the provider's membership bits for the given global
// identity ordering — the M_i(·) vector it contributes to ConstructPPI.
func (p *Provider) LocalVector(names []string) []bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]bool, len(names))
	for i, name := range names {
		out[i] = len(p.records[name]) > 0
	}
	return out
}

// RecordCount returns the total number of stored records.
func (p *Provider) RecordCount() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	total := 0
	for _, recs := range p.records {
		total += len(recs)
	}
	return total
}
