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
	"math/rand"
	"runtime"
	"time"

	"repro/internal/bitmat"
	"repro/internal/circuit"
	"repro/internal/mathx"
	"repro/internal/metrics"
	"repro/internal/parallel"
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
	// public-key-operation cost.
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
	// Seed drives all randomness of the run (deterministic experiments).
	Seed int64
	// XiOverride, when positive, fixes the mixing fraction ξ instead of
	// deriving it from the ε of common identities.
	XiOverride float64
	// BatchSize caps the number of identities compiled into a single MPC
	// circuit in ModeSecure; larger identity sets are processed in
	// independent batches (run concurrently up to Workers, each over its
	// own transport session), bounding circuit size and memory. 0 means
	// one batch for everything.
	BatchSize int
	// Workers bounds the construction worker pool: β-threshold and mixing
	// shards, concurrent MPC identity batches, and randomized publication
	// shards all share it. 0 means runtime.NumCPU(); 1 forces
	// the sequential path. Mixing shards draw from streams derived from Seed
	// with mathx.DeriveSeed and publication coins are keyed per cell, so
	// results are bit-identical at any worker count.
	Workers int
	// Triples selects the MPC preprocessing source (dealer by default;
	// TripleOT runs the real oblivious-transfer protocol).
	Triples TripleSource
	// Wide, in ModeSecure, evaluates the CountBelow/Reveal stages with the
	// bit-sliced 64-wide GMW evaluator: identities are scheduled onto
	// 64-lane slabs, one protocol execution per slab instead of one per
	// identity batch circuit. The published matrix is bit-identical to the
	// scalar path at any worker count; only the protocol cost changes.
	Wide bool
	// Arithmetic selects the circuit adder style: ripple (default) or
	// log-depth parallel-prefix, which trades AND gates for fewer GMW
	// communication rounds (latency-bound deployments).
	Arithmetic circuit.Style
	// NewNetwork supplies the transport for ModeSecure; defaults to the
	// in-memory transport.
	NewNetwork func(parties int) (transport.Network, error)
	// Metrics, when non-nil, instruments every protocol network of a
	// ModeSecure run: per-kind transport traffic plus SecSumShare and GMW
	// phase timers report into this registry.
	Metrics *metrics.Registry
	// Tracer, when non-nil, records one trace per Construct call (unless
	// the caller's context already carries a span, in which case the run
	// nests under it): a root span with child spans for β-threshold
	// calculation, SecSumShare, each MPC batch (OT preprocessing and GMW
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
	if c.BatchSize < 0 {
		return fmt.Errorf("%w: batch size %d", ErrBadConfig, c.BatchSize)
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
	// CountBelowCircuit summarises the common-count circuit.
	CountBelowCircuit circuit.Stats
	// RevealCircuit summarises the mixing/reveal circuit.
	RevealCircuit circuit.Stats
	// MPC is the combined traffic of both GMW executions.
	MPC transport.Stats
	// MPCRounds is the combined GMW round count.
	MPCRounds int
	// MPCWall is the wall time of the CountBelow/Reveal construction
	// stages (circuit compilation, preprocessing and protocol execution;
	// SecSumShare and publication excluded) — the phase the wide evaluator
	// accelerates, reported by bench/ as core.secure_mpc_share.
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

// rawBeta evaluates the configured policy without clamping.
func (c Config) rawBeta(sigma, epsilon float64, m int) float64 {
	switch c.Policy {
	case mathx.PolicyBasic:
		return mathx.BetaBasic(sigma, epsilon)
	case mathx.PolicyIncremented:
		return mathx.BetaIncremented(sigma, epsilon, c.Delta)
	default:
		return mathx.BetaChernoff(sigma, epsilon, m, c.Gamma)
	}
}

// Threshold returns t_j: the smallest frequency count (1..m) at which the
// configured policy reaches β* >= 1 for privacy degree epsilon, or m+1 if
// the identity can never be common. The policies are monotone in σ, so a
// binary search suffices; the result is public (it depends only on public
// parameters), matching Algorithm 1's σ' computation.
func (c Config) Threshold(epsilon float64, m int) uint64 {
	if m <= 0 {
		return 1
	}
	if !mathx.IsCommon(c.rawBeta(1, epsilon, m)) {
		return uint64(m + 1)
	}
	lo, hi := 1, m // invariant: answer in [lo, hi]
	for lo < hi {
		mid := (lo + hi) / 2
		if mathx.IsCommon(c.rawBeta(float64(mid)/float64(m), epsilon, m)) {
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
		if e < 0 || e > 1 {
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
	perr := parallel.Blocks(workers, n, colShard, func(_, lo, hi int) error {
		_, sp := trace.StartChild(betaCtx, "core.beta_thresholds.shard",
			trace.Int("lo", lo), trace.Int("hi", hi))
		defer sp.End()
		for j := lo; j < hi; j++ {
			thresholds[j] = cfg.Threshold(eps[j], m)
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
// Mixing and publication are sharded across the worker pool; a mixing
// shard derives its randomness from (cfg.Seed, stage stream, shard index)
// and publication from per-cell keyed coins, so the result is bit-identical
// at any worker count.
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

	// Identity mixing + per-identity β (Equations 6 and 7). Each shard
	// draws its mixing coins from its own derived stream.
	mixCtx, mixSpan := trace.StartChild(ctx, "core.mixing")
	hidden := make([]bool, n)
	betas := make([]float64, n)
	err = parallel.Blocks(workers, n, colShard, func(b, lo, hi int) error {
		_, sp := trace.StartChild(mixCtx, "core.mixing.shard",
			trace.Int("lo", lo), trace.Int("hi", hi))
		defer sp.End()
		rng := rand.New(rand.NewSource(mathx.DeriveSeed(cfg.Seed, seedStreamMix, uint64(b))))
		for j := lo; j < hi; j++ {
			if freqs[j] >= thresholds[j] || mathx.Bernoulli(rng, lambda) {
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
