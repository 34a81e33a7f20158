// Package eppi is the public API of the ε-PPI library: a privacy
// preserving index (locator service) for information networks with
// quantitatively personalized privacy preservation, reproducing
//
//	Tang, Liu, Iyengar, Lee, Zhang — "ε-PPI: Locator Service in
//	Information Networks with Personalized Privacy Preservation",
//	ICDCS 2014.
//
// The system model has four roles: data owners delegate records (with a
// personal privacy degree ε ∈ [0,1]) to autonomous providers; the
// providers jointly construct a privacy preserving index; an untrusted
// locator service hosts the index and answers QueryPPI; searchers run the
// two-phase search (QueryPPI, then per-provider AuthSearch).
//
// A minimal session:
//
//	net, _ := eppi.NewNetwork([]string{"general", "oncology", "womens-health"})
//	net.Delegate(0, eppi.Record{Owner: "alice", Kind: "visit", Body: "..."}, 0.3)
//	net.Delegate(2, eppi.Record{Owner: "alice", Kind: "visit", Body: "..."}, 0.9)
//	report, _ := net.ConstructPPI(eppi.WithChernoff(0.9))
//	net.Grant(0, "dr-bob")        // ACLs are per provider
//	s, _ := net.NewSearcher("dr-bob")
//	res, _ := s.Search("alice")   // two-phase search
//
// Construction runs in trusted-aggregation mode by default (fast
// simulation); WithSecure(c) switches to the paper's real protocol —
// SecSumShare among all providers plus c-coordinator secure multi-party
// computation — which never reconstructs a hidden identity's frequency
// outside a circuit.
package eppi

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/bitmat"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/mathx"
	"repro/internal/privacy"
	"repro/internal/provider"
	"repro/internal/searcher"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Record is one delegated personal record.
type Record struct {
	// Owner is the owner identity t_j (e.g. a patient identifier).
	Owner string
	// Kind labels the record type (e.g. "radiology").
	Kind string
	// Body is the record payload.
	Body string
}

// Policy selects a β-calculation policy (Section III-B of the paper).
type Policy = mathx.Policy

// The three β-calculation policies.
const (
	// PolicyBasic meets ε with ~50% probability (Equation 3).
	PolicyBasic = mathx.PolicyBasic
	// PolicyIncremented adds a configured Δ to the basic β (Equation 4).
	PolicyIncremented = mathx.PolicyIncremented
	// PolicyChernoff meets ε with configurable probability γ (Theorem 3.1).
	PolicyChernoff = mathx.PolicyChernoff
)

var (
	// ErrNotConstructed reports a query before ConstructPPI.
	ErrNotConstructed = errors.New("eppi: index not constructed yet")
	// ErrBadProvider reports an out-of-range provider id.
	ErrBadProvider = errors.New("eppi: provider id out of range")
	// ErrNoOwners reports construction over an empty network.
	ErrNoOwners = errors.New("eppi: no delegated records to index")
)

// Network is an information network of autonomous providers plus the
// third-party locator service built over them.
type Network struct {
	providers []*provider.Provider

	mu     sync.Mutex
	server *index.Server
	// published is M' as constructed (providers × owners), kept so the
	// export paths hand it to the partitioner without transposing the
	// server's owner-major copy back.
	published  *bitmat.Matrix
	report     *ConstructionReport
	privacy    *privacy.Report
	privacyDet *privacy.Detail
}

// NewNetwork creates a network with one provider per name.
func NewNetwork(providerNames []string) (*Network, error) {
	if len(providerNames) == 0 {
		return nil, errors.New("eppi: need at least one provider")
	}
	n := &Network{providers: make([]*provider.Provider, len(providerNames))}
	for i, name := range providerNames {
		n.providers[i] = provider.New(i, name)
	}
	return n, nil
}

// Providers returns the number of providers.
func (n *Network) Providers() int { return len(n.providers) }

// ProviderName returns the display name of provider id.
func (n *Network) ProviderName(id int) (string, error) {
	if id < 0 || id >= len(n.providers) {
		return "", fmt.Errorf("%w: %d", ErrBadProvider, id)
	}
	return n.providers[id].Name(), nil
}

// Delegate implements Delegate(⟨t_j, ε_j⟩, p_i): owner rec.Owner stores a
// record at provider id with privacy degree epsilon.
func (n *Network) Delegate(id int, rec Record, epsilon float64) error {
	if id < 0 || id >= len(n.providers) {
		return fmt.Errorf("%w: %d", ErrBadProvider, id)
	}
	return n.providers[id].Delegate(provider.Record{
		Owner: rec.Owner, Kind: rec.Kind, Body: rec.Body,
	}, epsilon)
}

// Grant authorizes a searcher at provider id's local access-control
// subsystem.
func (n *Network) Grant(id int, searcherID string) error {
	if id < 0 || id >= len(n.providers) {
		return fmt.Errorf("%w: %d", ErrBadProvider, id)
	}
	n.providers[id].Grant(searcherID)
	return nil
}

// GrantAll authorizes a searcher at every provider.
func (n *Network) GrantAll(searcherID string) {
	for _, p := range n.providers {
		p.Grant(searcherID)
	}
}

// Revoke removes a searcher's authorization at provider id.
func (n *Network) Revoke(id int, searcherID string) error {
	if id < 0 || id >= len(n.providers) {
		return fmt.Errorf("%w: %d", ErrBadProvider, id)
	}
	n.providers[id].Revoke(searcherID)
	return nil
}

// options collects construction parameters.
type options struct {
	cfg core.Config
}

// Option configures ConstructPPI.
type Option func(*options)

// WithPolicy selects a β policy with its parameter (Δ for
// PolicyIncremented, γ for PolicyChernoff; ignored for PolicyBasic).
func WithPolicy(p Policy, param float64) Option {
	return func(o *options) {
		o.cfg.Policy = p
		switch p {
		case mathx.PolicyIncremented:
			o.cfg.Delta = param
		case mathx.PolicyChernoff:
			o.cfg.Gamma = param
		}
	}
}

// WithChernoff selects the Chernoff policy with success ratio γ — the
// paper's recommended configuration.
func WithChernoff(gamma float64) Option {
	return WithPolicy(mathx.PolicyChernoff, gamma)
}

// WithSecure switches construction to the real distributed protocol with c
// coordinators (tolerating up to c−1 colluding providers).
func WithSecure(c int) Option {
	return func(o *options) {
		o.cfg.Mode = core.ModeSecure
		o.cfg.C = c
	}
}

// WithTCP makes the secure protocol run over real TCP loopback sockets
// instead of the in-memory transport.
func WithTCP() Option {
	return func(o *options) {
		o.cfg.NewNetwork = func(parties int) (transport.Network, error) {
			return transport.NewTCP(parties)
		}
	}
}

// WithBatchSize caps the identities per MPC circuit in secure mode; large
// owner sets are processed in sequential batches to bound memory.
func WithBatchSize(size int) Option {
	return func(o *options) { o.cfg.BatchSize = size }
}

// WithPrefixArithmetic compiles the secure mode's circuits with log-depth
// parallel-prefix adders: more AND gates but far fewer MPC communication
// rounds — the right trade on latency-bound (WAN) coordinator links.
func WithPrefixArithmetic() Option {
	return func(o *options) { o.cfg.Arithmetic = circuit.StylePrefix }
}

// WithWideMPC evaluates the secure mode's CountBelow/Reveal circuits with
// the bit-sliced 64-wide GMW evaluator: identities are packed 64 per
// machine word, so one AND-opening round serves 64 identities at once.
// The constructed index is bit-identical to the scalar evaluator; only
// protocol cost changes. Only meaningful with WithSecure.
func WithWideMPC() Option {
	return func(o *options) { o.cfg.Wide = true }
}

// WithOTPreprocessing replaces the secure mode's trusted triple dealer
// with the pairwise oblivious-transfer protocol — no trusted party at all,
// at the cost of public-key operations per AND gate. Only meaningful with
// WithSecure.
func WithOTPreprocessing() Option {
	return func(o *options) { o.cfg.Triples = core.TripleOT }
}

// WithSeed fixes the construction randomness for reproducible runs.
func WithSeed(seed int64) Option {
	return func(o *options) { o.cfg.Seed = seed }
}

// WithWorkers bounds the construction worker pool (β-threshold shards,
// concurrent MPC identity batches, publication shards). The default is
// runtime.NumCPU(); 1 forces the sequential path. The constructed index
// is bit-identical at any worker count for a given seed.
func WithWorkers(workers int) Option {
	return func(o *options) { o.cfg.Workers = workers }
}

// WithTracer records one span tree per ConstructPPI run into tr — the β
// phase, SecSumShare, each MPC batch (OT preprocessing and GMW phases
// included), mixing and publication. Export the result with
// trace.WriteChrome (Perfetto) or Tracer.WriteTrees.
func WithTracer(tr *trace.Tracer) Option {
	return func(o *options) { o.cfg.Tracer = tr }
}

// WithXi overrides the mixing fraction ξ (normally derived from the ε of
// common identities).
func WithXi(xi float64) Option {
	return func(o *options) { o.cfg.XiOverride = xi }
}

// OwnerReport describes one owner in the constructed index.
type OwnerReport struct {
	// Owner is the identity.
	Owner string
	// Epsilon is the effective privacy degree used (max over delegations).
	Epsilon float64
	// Beta is the final publishing probability β_j.
	Beta float64
	// Hidden reports whether the identity was published as common
	// (true common or mixed in).
	Hidden bool
}

// ConstructionReport summarises a ConstructPPI run.
type ConstructionReport struct {
	// Owners lists per-owner outcomes in index column order.
	Owners []OwnerReport
	// CommonCount is the number of true common identities.
	CommonCount int
	// Lambda is the applied mixing probability.
	Lambda float64
	// Xi is the targeted false fraction among published commons.
	Xi float64
	// SearchCost is the total published positives (query fan-out measure).
	SearchCost int
	// Secure carries protocol cost accounting for secure mode (nil
	// otherwise).
	Secure *core.SecureStats
}

// ConstructPPI runs the paper's ConstructPPI({ε_j}) operation over the
// current delegations and installs the resulting index in the locator
// service. It may be called again after further delegations; the new index
// replaces the old.
func (n *Network) ConstructPPI(opts ...Option) (*ConstructionReport, error) {
	o := options{cfg: core.Config{
		Policy: mathx.PolicyChernoff,
		Gamma:  0.9,
		Mode:   core.ModeTrusted,
	}}
	for _, opt := range opts {
		opt(&o)
	}

	// Owner universe: sorted union of all providers' delegated owners,
	// with per-owner ε = max over providers (strongest stated preference).
	epsByOwner := make(map[string]float64)
	for _, p := range n.providers {
		for _, owner := range p.Owners() {
			e, _ := p.Epsilon(owner)
			if cur, ok := epsByOwner[owner]; !ok || e > cur {
				epsByOwner[owner] = e
			}
		}
	}
	if len(epsByOwner) == 0 {
		return nil, ErrNoOwners
	}
	names := make([]string, 0, len(epsByOwner))
	for owner := range epsByOwner {
		names = append(names, owner)
	}
	sort.Strings(names)
	eps := make([]float64, len(names))
	for j, owner := range names {
		eps[j] = epsByOwner[owner]
	}

	truth, err := buildMatrix(n.providers, names)
	if err != nil {
		return nil, err
	}
	res, err := core.Construct(truth, eps, o.cfg)
	if err != nil {
		return nil, fmt.Errorf("construct: %w", err)
	}
	server, err := index.NewServer(res.Published, names)
	if err != nil {
		return nil, err
	}
	report := &ConstructionReport{
		CommonCount: res.CommonCount,
		Lambda:      res.Lambda,
		Xi:          res.Xi,
		SearchCost:  res.Published.Count(),
		Secure:      res.Secure,
	}
	for j, owner := range names {
		report.Owners = append(report.Owners, OwnerReport{
			Owner:   owner,
			Epsilon: eps[j],
			Beta:    res.Betas[j],
			Hidden:  res.Hidden[j],
		})
	}
	// Audit the artifact we just built: re-derive the achieved privacy
	// from M vs M' (internal/privacy). This runs where the truth matrix
	// legitimately lives — inside the provider network — and only the
	// aggregate report ever leaves with the published index; the
	// per-identity detail stays behind PrivacyDetail.
	priv, privDet, err := privacy.Compute(privacy.Input{
		Truth:      truth,
		Published:  res.Published,
		Names:      names,
		Eps:        eps,
		Thresholds: res.Thresholds,
		Hidden:     res.Hidden,
		Policy:     o.cfg.Policy.String(),
		Gamma:      o.cfg.Gamma,
		Lambda:     res.Lambda,
		Xi:         res.Xi,
	})
	if err != nil {
		return nil, fmt.Errorf("eppi: privacy audit: %w", err)
	}

	n.mu.Lock()
	n.server = server
	n.published = res.Published
	n.report = report
	n.privacy = priv
	n.privacyDet = privDet
	n.mu.Unlock()
	return report, nil
}

// PrivacyReport returns the ε-audit report of the last ConstructPPI run
// (nil before construction): the achieved false-positive protection of
// the published matrix measured against the configured policy. It is
// published alongside each epoch by PublishEpoch and served by nodes at
// GET /v1/privacy.
func (n *Network) PrivacyReport() *privacy.Report {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.privacy
}

// PrivacyDetail returns the operator-only companion of PrivacyReport
// (nil before construction): the identity→ε-decile map and the full
// per-identity violation records. Unlike the report it is never
// published by PublishEpoch — per-identity privacy demand must not
// leave the provider network — so an operator who wants it in their
// own store persists it explicitly with privacy.WriteDetailFile.
func (n *Network) PrivacyDetail() *privacy.Detail {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.privacyDet
}

// Query implements QueryPPI(t_j): the ids of providers that may hold the
// owner's records (including privacy noise).
func (n *Network) Query(owner string) ([]int, error) {
	srv, err := n.serverHandle()
	if err != nil {
		return nil, err
	}
	return srv.Query(owner)
}

// QueryBatch resolves many owners in one pass over the current index.
// Every item is answered by the same snapshot, and a missing owner is an
// in-band miss (Found=false) rather than an error, so one unknown
// identity does not fail the rest of the batch.
func (n *Network) QueryBatch(ctx context.Context, owners []string) ([]index.BatchItem, error) {
	srv, err := n.serverHandle()
	if err != nil {
		return nil, err
	}
	return srv.QueryBatch(ctx, owners), nil
}

// Report returns the last construction report (nil before ConstructPPI).
func (n *Network) Report() *ConstructionReport {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.report
}

// SearchResult is the outcome of a two-phase search.
type SearchResult struct {
	// Records are the owner's records found at authorized providers.
	Records []Record
	// Contacted is the number of providers returned by QueryPPI.
	Contacted int
	// TruePositives counts contacted providers that held records.
	TruePositives int
	// FalsePositives counts contacted noise providers.
	FalsePositives int
	// Denied counts providers that refused authorization.
	Denied int
}

// Searcher performs two-phase searches on behalf of a principal.
type Searcher struct {
	inner *searcher.Searcher
}

// NewSearcher creates a searcher bound to the current index.
func (n *Network) NewSearcher(id string) (*Searcher, error) {
	srv, err := n.serverHandle()
	if err != nil {
		return nil, err
	}
	inner, err := searcher.New(id, srv, n.providers)
	if err != nil {
		return nil, err
	}
	return &Searcher{inner: inner}, nil
}

// Search runs QueryPPI followed by AuthSearch at each candidate provider.
func (s *Searcher) Search(owner string) (*SearchResult, error) {
	res, err := s.inner.Search(owner)
	if err != nil {
		return nil, err
	}
	out := &SearchResult{
		Contacted:      res.Contacted,
		TruePositives:  res.TruePositives,
		FalsePositives: res.FalsePositives,
		Denied:         res.Denied,
	}
	for _, r := range res.Records {
		out.Records = append(out.Records, Record{Owner: r.Owner, Kind: r.Kind, Body: r.Body})
	}
	return out, nil
}

// publishedHandle returns the constructed M' and its column labels.
func (n *Network) publishedHandle() (*bitmat.Matrix, []string, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.server == nil {
		return nil, nil, ErrNotConstructed
	}
	return n.published, n.server.Names(), nil
}

func (n *Network) serverHandle() (*index.Server, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.server == nil {
		return nil, ErrNotConstructed
	}
	return n.server, nil
}
