// Package core implements the ε-PPI construction engine: the two-phase
// framework of Section III of the paper (β calculation, then randomized
// publication), including the common-identity mixing defence.
//
// Two execution paths produce identical statistical behaviour:
//
//   - ModeTrusted computes identity frequencies directly from the private
//     matrix. It exists for large-scale simulation (Figures 4 and 5 use
//     networks of 10,000 providers) where running the cryptographic
//     protocol per sample would dominate experiment time.
//
//   - ModeSecure runs the real distributed pipeline: SecSumShare over all
//     m providers, then two GMW computations among the c coordinators
//     (CountBelow for the common count, Reveal for per-identity mixing and
//     masked frequency release). No frequency of a hidden identity is ever
//     reconstructed outside a circuit.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/bitmat"
	"repro/internal/circuit"
	"repro/internal/mathx"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/prf"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Mode selects the construction execution path.
type Mode int

// Construction modes.
const (
	// ModeTrusted aggregates frequencies in the clear (simulation path).
	ModeTrusted Mode = iota + 1
	// ModeSecure runs SecSumShare + GMW (the paper's actual protocol).
	ModeSecure
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeTrusted:
		return "trusted"
	case ModeSecure:
		return "secure"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// DefaultCoinBits is the default mixing-coin precision (λ resolution of
// 2^-16).
const DefaultCoinBits = 16

// TripleSource selects the Beaver-triple preprocessing for ModeSecure.
type TripleSource int

// Triple sources. The zero value is the dealer because it is the sensible
// default for simulation-scale runs (the paper's FairplayMP likewise
// assumes preprocessing exists).
const (
	// TripleDealer uses a trusted offline dealer (fast; the default).
	TripleDealer TripleSource = iota
	// TripleOT generates triples with the pairwise oblivious-transfer
	// protocol (gmw.GenTriplesOT) — no trusted party, at real
	// public-key-operation cost, paid only for lanes that carry an
	// identity (or a count).
	TripleOT
)

// String names the source.
func (s TripleSource) String() string {
	switch s {
	case TripleDealer:
		return "dealer"
	case TripleOT:
		return "ot"
	default:
		return fmt.Sprintf("triples(%d)", int(s))
	}
}

// Config parameterises a construction run.
type Config struct {
	// Policy selects the β-calculation policy.
	Policy mathx.Policy
	// Delta is Δ for mathx.PolicyIncremented.
	Delta float64
	// Gamma is γ for mathx.PolicyChernoff.
	Gamma float64
	// Mode selects trusted aggregation or the secure protocol.
	Mode Mode
	// C is the coordinator count (collusion tolerance) for ModeSecure.
	C int
	// CoinBits is the mixing-coin precision (DefaultCoinBits when 0).
	CoinBits int
	// Seed drives all randomness of the run (deterministic experiments):
	// every draw is keyed by it through internal/prf.
	Seed int64
	// XiOverride, when positive, fixes the mixing fraction ξ instead of
	// deriving it from the ε of common identities.
	XiOverride float64
	// BatchSize sized the batches whose common counts stage B opened.
	//
	// Deprecated: ignored; kept because bench/ sets it.
	BatchSize int
	// Workers bounds the construction worker pool: β-threshold and mixing
	// shards, triple dealing, and randomized publication shards all share
	// it. 0 means runtime.NumCPU(); 1 forces the sequential path. Results
	// are bit-identical at any worker count.
	Workers int
	// Triples selects the MPC preprocessing source (dealer by default;
	// TripleOT runs the real oblivious-transfer protocol).
	Triples TripleSource
	// Deprecated: Wide is ignored. Stages B and C always run bit-sliced
	// over all identities; the field stays for callers that still set it.
	Wide bool
	// Arithmetic named a circuit adder style; every circuit uses ripple
	// adders.
	//
	// Deprecated: ignored; kept because bench/ sets it.
	Arithmetic circuit.Style
	// NewNetwork supplies the transport for ModeSecure; defaults to the
	// in-memory transport. A construction calls it once for the m-party
	// provider network and once per MPC execution for a c-party
	// coordinator network, and closes each network before the next opens.
	NewNetwork func(parties int) (transport.Network, error)
	// Metrics, when non-nil, instruments every protocol network of a
	// ModeSecure run: per-kind transport traffic plus SecSumShare and GMW
	// phase timers report into this registry.
	Metrics *metrics.Registry
	// Tracer, when non-nil, records one trace per Construct call (unless
	// the caller's context already carries a span, in which case the run
	// nests under it): a root span with child spans for β-threshold
	// calculation, SecSumShare, each MPC stage (OT preprocessing and GMW
	// phases included), identity mixing, and publication. Per-stage
	// transport traffic is attributed to the stage spans.
	Tracer *trace.Tracer
}

func (c Config) coinBits() int {
	if c.CoinBits == 0 {
		return DefaultCoinBits
	}
	return c.CoinBits
}

// workers resolves Config.Workers to the effective pool size.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.NumCPU()
}

var (
	// ErrBadConfig reports an invalid configuration.
	ErrBadConfig = errors.New("core: invalid configuration")
	// ErrShape reports mismatched matrix/ε dimensions.
	ErrShape = errors.New("core: ε vector does not match matrix")
)

func (c Config) validate() error {
	if !c.Policy.Valid() {
		return fmt.Errorf("%w: policy %v", ErrBadConfig, c.Policy)
	}
	// The threshold table skips mathx.Beta's per-call checks, so the policy
	// parameters are checked here, before any stage runs.
	if c.Policy == mathx.PolicyIncremented && (c.Delta < 0 || math.IsNaN(c.Delta)) {
		return fmt.Errorf("%w: Δ=%v, want >= 0", ErrBadConfig, c.Delta)
	}
	if c.Policy == mathx.PolicyChernoff && !(c.Gamma > 0.5 && c.Gamma < 1) {
		return fmt.Errorf("%w: γ=%v, want in (0.5, 1)", ErrBadConfig, c.Gamma)
	}
	switch c.Mode {
	case ModeTrusted:
	case ModeSecure:
		if c.C < 2 {
			return fmt.Errorf("%w: secure mode needs C >= 2, got %d", ErrBadConfig, c.C)
		}
	default:
		return fmt.Errorf("%w: mode %v", ErrBadConfig, c.Mode)
	}
	if c.CoinBits < 0 || c.CoinBits > 62 {
		return fmt.Errorf("%w: coin bits %d", ErrBadConfig, c.CoinBits)
	}
	if c.Workers < 0 {
		return fmt.Errorf("%w: workers %d", ErrBadConfig, c.Workers)
	}
	if c.Triples != TripleDealer && c.Triples != TripleOT {
		return fmt.Errorf("%w: triple source %v", ErrBadConfig, c.Triples)
	}
	return nil
}

// SecureStats records the cost of the secure pipeline stages.
type SecureStats struct {
	// SecSum is the traffic of the SecSumShare stage.
	SecSum transport.Stats
	// SecSumRounds is its round count (always 2).
	SecSumRounds int
	// CountBelowCircuit sums the sizes of stage B's three circuits, the
	// comparator and the count opener's two levels, in word units.
	CountBelowCircuit circuit.Stats
	// RevealCircuit summarises the mixing/reveal circuit, in word units.
	RevealCircuit circuit.Stats
	// MPC is the combined traffic of the four GMW executions of stages B
	// and C.
	MPC transport.Stats
	// MPCRounds is their combined round count.
	MPCRounds int
	// MPCWall is the wall time of the CountBelow/Reveal construction
	// stages (circuit compilation, preprocessing and protocol execution;
	// SecSumShare and publication excluded), reported by bench/ as
	// core.secure_mpc_share.
	MPCWall time.Duration
}

// Result is the outcome of a construction run.
type Result struct {
	// Published is the constructed matrix M' (same shape as the input M).
	Published *bitmat.Matrix
	// Betas holds the final per-identity publishing probabilities β_j
	// (1 for hidden identities).
	Betas []float64
	// Thresholds holds the public common thresholds t_j (frequency counts;
	// m+1 means the identity can never be common).
	Thresholds []uint64
	// Hidden marks identities published as common (true commons plus
	// mixed-in non-commons).
	Hidden []bool
	// CommonCount is the number of true common identities (in ModeSecure
	// this is the count released by CountBelow — the only frequency-derived
	// scalar the protocol reveals).
	CommonCount int
	// Lambda is the mixing probability applied to non-common identities.
	Lambda float64
	// Xi is the false-positive fraction targeted within the published
	// common set.
	Xi float64
	// Secure carries protocol cost accounting (nil in ModeTrusted).
	Secure *SecureStats
}

// Threshold returns t_j: the smallest frequency count (1..m) at which the
// configured policy reaches β* >= 1 for privacy degree epsilon, or m+1 if
// the identity can never be common. The policies are monotone in σ, so a
// binary search suffices; the result is public (it depends only on public
// parameters), matching Algorithm 1's σ' computation.
func (c Config) Threshold(epsilon float64, m int) uint64 {
	return c.thresholdSearch(m, false).threshold(epsilon)
}

// thresholdSearch finds t_j for one configuration and provider count m. A
// construction fills table, the σ side of the policy at every count k, once
// and then runs one combine step per probe; Config.Threshold leaves it nil
// and computes each probe's σ side as it goes. Both paths run the same
// search and the same mathx expressions, so their t_j are identical.
type thresholdSearch struct {
	cfg     Config
	m       int
	lnGamma float64
	// table[k] is the σ side at σ = k/m, k ∈ [1, m] (nil: compute per probe).
	table []mathx.SigmaSide
}

func (c Config) thresholdSearch(m int, table bool) *thresholdSearch {
	ts := &thresholdSearch{cfg: c, m: m}
	if c.Policy == mathx.PolicyChernoff {
		ts.lnGamma = mathx.ChernoffLog(c.Gamma)
	}
	if table && m > 0 {
		sides := make([]mathx.SigmaSide, m+1)
		for k := 1; k <= m; k++ {
			sides[k] = ts.sigma(k)
		}
		ts.table = sides
	}
	return ts
}

// sigma is the σ side of the configured policy at σ = k/m.
func (ts *thresholdSearch) sigma(k int) mathx.SigmaSide {
	if ts.table != nil {
		return ts.table[k]
	}
	sigma := float64(k) / float64(ts.m)
	if ts.cfg.Policy == mathx.PolicyChernoff {
		return mathx.ChernoffSigma(sigma, ts.m, ts.lnGamma)
	}
	return mathx.BasicSigma(sigma)
}

// common reports whether the policy marks an identity with ε side e common
// at frequency count k.
func (ts *thresholdSearch) common(k int, e mathx.EpsSide) bool {
	s := ts.sigma(k)
	switch ts.cfg.Policy {
	case mathx.PolicyBasic:
		return mathx.IsCommon(mathx.CombineBasic(s, e))
	case mathx.PolicyIncremented:
		return mathx.IsCommon(mathx.CombineIncremented(s, e, ts.cfg.Delta))
	default:
		return mathx.IsCommon(mathx.CombineChernoff(s, e))
	}
}

func (ts *thresholdSearch) threshold(epsilon float64) uint64 {
	m := ts.m
	if m <= 0 {
		return 1
	}
	e := mathx.Eps(epsilon)
	if !ts.common(m, e) {
		return uint64(m + 1)
	}
	lo, hi := 1, m // invariant: answer in [lo, hi]
	for lo < hi {
		mid := (lo + hi) / 2
		if ts.common(mid, e) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return uint64(lo)
}

// Construct builds the ε-PPI for private matrix truth (providers × owners)
// and per-owner privacy degrees eps.
func Construct(truth *bitmat.Matrix, eps []float64, cfg Config) (*Result, error) {
	return ConstructCtx(context.Background(), truth, eps, cfg)
}

// ConstructCtx is Construct with an explicit context. When the context
// carries a trace span (or cfg.Tracer is set) the run records a span tree
// covering every construction phase: β-threshold calculation, SecSumShare,
// OT preprocessing, GMW evaluation, identity mixing and publication.
func ConstructCtx(ctx context.Context, truth *bitmat.Matrix, eps []float64, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m, n := truth.Rows(), truth.Cols()
	if m == 0 || n == 0 {
		return nil, fmt.Errorf("%w: empty matrix %dx%d", ErrShape, m, n)
	}
	if len(eps) != n {
		return nil, fmt.Errorf("%w: %d ε values for %d owners", ErrShape, len(eps), n)
	}
	for j, e := range eps {
		if e < 0 || e > 1 || math.IsNaN(e) {
			return nil, fmt.Errorf("%w: ε[%d]=%v out of [0,1]", ErrShape, j, e)
		}
	}

	// Open a root span when the caller supplied a tracer but no enclosing
	// span; nest under the caller's span otherwise.
	if cfg.Tracer != nil && trace.FromContext(ctx) == nil {
		var root *trace.Span
		ctx, root = cfg.Tracer.StartRoot(ctx, "core.construct")
		defer root.End()
	}
	workers := cfg.workers()
	ctx, runSpan := trace.StartChild(ctx, "core.construct.run",
		trace.A("mode", cfg.Mode.String()), trace.A("policy", cfg.Policy.String()),
		trace.Int("providers", m), trace.Int("identities", n),
		trace.Int("workers", workers))
	defer runSpan.End()
	if cfg.Metrics != nil {
		cfg.Metrics.Gauge("eppi_construct_workers",
			"Size of the construction worker pool of the most recent run.").Set(float64(workers))
	}

	// β policy evaluation: the public per-identity thresholds t_j
	// (Algorithm 1's σ' computation), sharded across the worker pool.
	betaCtx, betaSpan := trace.StartChild(ctx, "core.beta_thresholds")
	thresholds := make([]uint64, n)
	search := cfg.thresholdSearch(m, true)
	perr := parallel.Blocks(workers, n, colShard, func(_, lo, hi int) error {
		_, sp := trace.StartChild(betaCtx, "core.beta_thresholds.shard",
			trace.Int("lo", lo), trace.Int("hi", hi))
		defer sp.End()
		for j := lo; j < hi; j++ {
			thresholds[j] = search.threshold(eps[j])
		}
		return nil
	})
	betaSpan.SetInt("identities", n)
	betaSpan.End()
	if perr != nil {
		return nil, perr
	}

	switch cfg.Mode {
	case ModeTrusted:
		return constructTrusted(ctx, truth, eps, thresholds, cfg)
	default:
		return constructSecure(ctx, truth, eps, thresholds, cfg)
	}
}

// constructTrusted runs the simulation path: frequencies in the clear.
// Mixing and publication are sharded across the worker pool; every coin
// they read is keyed per owner or per cell (internal/prf), so the result is
// bit-identical at any worker count.
func constructTrusted(ctx context.Context, truth *bitmat.Matrix, eps []float64, thresholds []uint64, cfg Config) (*Result, error) {
	m, n := truth.Rows(), truth.Cols()
	workers := cfg.workers()
	// One tiled pass counts every column: a few milliseconds where
	// publication takes hundreds, so it is not sharded.
	_, aggSpan := trace.StartChild(ctx, "core.aggregate")
	freqs := make([]uint64, n)
	commons := 0
	for j, f := range truth.ColCounts() {
		freqs[j] = uint64(f)
		if freqs[j] >= thresholds[j] {
			commons++
		}
	}
	aggSpan.SetInt("commons", commons)
	aggSpan.End()
	xi := cfg.XiOverride
	if xi <= 0 {
		for j := 0; j < n; j++ {
			if freqs[j] >= thresholds[j] && eps[j] > xi {
				xi = eps[j]
			}
		}
	}
	lambda, err := mathx.Lambda(xi, commons, n)
	if err != nil {
		return nil, err
	}

	// Identity mixing + per-identity β (Equations 6 and 7). Owner j's coin
	// is word j of the Mix keystream, drawn for every owner, so the hidden
	// set is monotone in λ and no owner's coin depends on another's.
	mixCtx, mixSpan := trace.StartChild(ctx, "core.mixing")
	hidden := make([]bool, n)
	betas := make([]float64, n)
	coins := make([]uint64, n)
	prf.New(prf.Key(cfg.Seed, prf.Mix, 0)).Words(coins)
	cut := mixCut(lambda)
	err = parallel.Blocks(workers, n, colShard, func(_, lo, hi int) error {
		_, sp := trace.StartChild(mixCtx, "core.mixing.shard",
			trace.Int("lo", lo), trace.Int("hi", hi))
		defer sp.End()
		for j := lo; j < hi; j++ {
			if freqs[j] >= thresholds[j] || lambda >= 1 || coins[j] < cut {
				hidden[j] = true
				betas[j] = 1
				continue
			}
			sigma := float64(freqs[j]) / float64(m)
			bv, err := mathx.Beta(cfg.Policy, mathx.BetaParams{
				Sigma: sigma, Epsilon: eps[j], M: m, Delta: cfg.Delta, Gamma: cfg.Gamma,
			})
			if err != nil {
				return fmt.Errorf("β for identity %d: %w", j, err)
			}
			betas[j] = bv
		}
		return nil
	})
	mixSpan.End()
	if err != nil {
		return nil, err
	}

	published := publishSharded(ctx, truth, betas, cfg.Seed, workers)
	return &Result{
		Published:   published,
		Betas:       betas,
		Thresholds:  thresholds,
		Hidden:      hidden,
		CommonCount: commons,
		Lambda:      lambda,
		Xi:          xi,
	}, nil
}

// mixCut is ⌊λ · 2⁶⁴⌋, the trusted-mode mixing cutoff: an owner whose coin
// is below it is mixed in. λ ≤ 0 gives 0 (no one); λ ≥ 1 hides every owner
// and is tested before the cutoff is. Scaling by a power of two is exact,
// and λ ≤ 1 − 2⁻⁵³ keeps the product below 2⁶⁴.
func mixCut(lambda float64) uint64 {
	if lambda <= 0 || lambda >= 1 {
		return 0
	}
	return uint64(math.Ldexp(lambda, 64))
}
