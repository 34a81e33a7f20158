package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bitmat"
	"repro/internal/circuit"
	"repro/internal/field"
	"repro/internal/gmw"
	"repro/internal/mathx"
	"repro/internal/secretshare"
	"repro/internal/secsum"
	"repro/internal/trace"
	"repro/internal/transport"
)

// onNetwork runs one protocol execution on a network of its own: it opens
// a network of the given number of parties from cfg.NewNetwork (in memory
// by default), instruments it with cfg.Metrics, attaches sp, runs fn on it
// and closes it. A close error fails the execution; on an execution error
// the network is closed and fn's error returned.
func (cfg Config) onNetwork(parties int, sp *trace.Span, fn func(transport.Network) error) error {
	newNet := cfg.NewNetwork
	if newNet == nil {
		newNet = func(parties int) (transport.Network, error) { return transport.NewInMem(parties) }
	}
	net, err := newNet(parties)
	if err != nil {
		return fmt.Errorf("open %d-party network: %w", parties, err)
	}
	transport.Instrument(net, cfg.Metrics)
	transport.AttachSpan(net, sp)
	err = fn(net)
	if closeErr := net.Close(); err == nil && closeErr != nil {
		err = fmt.Errorf("close %d-party network: %w", parties, closeErr)
	}
	return err
}

// addCircuitStats accumulates circuit statistics (sizes add; depth takes
// the maximum).
func addCircuitStats(acc, s circuit.Stats) circuit.Stats {
	acc.Wires += s.Wires
	acc.Gates += s.Gates
	acc.AndGates += s.AndGates
	acc.FreeGates += s.FreeGates
	acc.Inputs += s.Inputs
	acc.Outputs += s.Outputs
	if s.AndDepth > acc.AndDepth {
		acc.AndDepth = s.AndDepth
	}
	return acc
}

// constructSecure runs the real distributed pipeline of Section IV:
//
//	Stage A (m providers): SecSumShare → c coordinator share vectors over
//	        the additive group Z_{2^W}, W = bits(m+1) + 1.
//	Stage B (c coordinators, GMW): CountBelow → public common count, the
//	        one value the stage opens. λ is then computed publicly from
//	        the count (Equation 7).
//	Stage C (c coordinators, GMW): Reveal → per identity, a hidden bit
//	        (common ∨ mixed) and the frequency, opened only when not
//	        hidden. β follows Equation 6.
//	Phase 2 (every provider, local): randomized publication.
//
// Stages B and C are four bit-sliced GMW executions (secure_mpc.go): the
// comparator and Reveal over all n identities at once, and between them
// the two levels of the count opener. Every execution, stage A's
// included, runs on a network of its own from Config.NewNetwork, closed
// before the next one opens (onNetwork). Protocol randomness and the
// mixing coins are keyed through internal/prf, per execution and per
// (coordinator, identity), so the run is bit-identical at any worker
// count.
//
// ξ is taken over identities that *can* be common (public thresholds
// t_j <= m); the trusted path uses the paper's exact max-over-true-commons,
// which the secure path cannot evaluate without leaking the common set.
// The conservative ξ only ever increases λ, i.e. strengthens mixing.
func constructSecure(ctx context.Context, truth *bitmat.Matrix, eps []float64, thresholds []uint64, cfg Config) (*Result, error) {
	m, n := truth.Rows(), truth.Cols()
	c := cfg.C
	workers := cfg.workers()
	if m < c {
		return nil, fmt.Errorf("%w: %d providers cannot host %d coordinators", ErrBadConfig, m, c)
	}
	// The comparators fold the public threshold into party 0's share and
	// read the sign bit of freq − t, which needs one bit of sign slack:
	// shares live in Z_{2^W}, W = bits(m+1) + 1. Σ shares mod 2^W = freq
	// because freq ≤ m < 2^(W−1).
	groupBits := circuit.BitsNeeded(uint64(m+1)) + 1
	group, err := field.NewAdditive(1 << uint(groupBits))
	if err != nil {
		return nil, err
	}
	scheme, err := secretshare.New(group, c)
	if err != nil {
		return nil, err
	}
	stats := &SecureStats{}

	// --- Stage A: SecSumShare over all m providers -------------------------
	_, ssSpan := trace.StartChild(ctx, "secsum.share")
	var sumRes *secsum.Result
	err = cfg.onNetwork(m, ssSpan, func(net transport.Network) (err error) {
		sumRes, err = secsum.RunBits(net, scheme, n, truth.RowWords, cfg.Seed)
		return err
	})
	ssSpan.End()
	if err != nil {
		return nil, fmt.Errorf("SecSumShare: %w", err)
	}
	stats.SecSum = sumRes.Stats
	stats.SecSumRounds = sumRes.Rounds

	st := &mpcStages{
		ctx:        ctx,
		cfg:        cfg,
		c:          c,
		w:          groupBits,
		m:          m,
		n:          n,
		words:      (n + gmw.Lanes - 1) / gmw.Lanes,
		workers:    workers,
		shares:     sumRes.CoordinatorShares,
		thresholds: thresholds,
	}

	// --- Stage B: CountBelow among the c coordinators ----------------------
	// One common count is opened, the total over all identities.
	mpcStart := time.Now()
	cb, err := st.countBelow()
	if err != nil {
		return nil, fmt.Errorf("CountBelow: %w", err)
	}
	commonCount := cb.count
	stats.CountBelowCircuit = cb.circ

	// λ from the public count (Equation 7), with conservative public ξ.
	_, mixSpan := trace.StartChild(ctx, "core.mixing", trace.Int("common_count", commonCount))
	xi := cfg.XiOverride
	if xi <= 0 {
		for j := 0; j < n; j++ {
			if thresholds[j] <= uint64(m) && eps[j] > xi {
				xi = eps[j]
			}
		}
	}
	lambda, err := mathx.Lambda(xi, commonCount, n)
	mixSpan.End()
	if err != nil {
		return nil, err
	}

	// --- Stage C: Reveal among the c coordinators --------------------------
	hidden := make([]bool, n)
	betas := make([]float64, n)
	rv, err := st.reveal(cfg.coinBits(), lambda, eps, hidden, betas)
	if err != nil {
		return nil, fmt.Errorf("Reveal: %w", err)
	}
	stats.RevealCircuit = rv.circ
	for _, out := range []mpcOut{cb, rv} {
		stats.MPC.Messages += out.stats.Messages
		stats.MPC.Bytes += out.stats.Bytes
		stats.MPCRounds += out.rounds
	}
	stats.MPCWall = time.Since(mpcStart)
	if g := cfg.Metrics.Gauge("eppi_gmw_slab_waste_slots",
		"Padded lanes in the final word of the CountBelow and Reveal executions of the most recent secure construction (both passes counted; 0 when the identity count is a multiple of 64)."); g != nil {
		g.Set(float64(2 * (gmw.Lanes*st.words - n)))
	}
	// Phase 2: every provider publishes locally using the public β vector.
	published := publishSharded(ctx, truth, betas, cfg.Seed, workers)
	return &Result{
		Published:   published,
		Betas:       betas,
		Thresholds:  thresholds,
		Hidden:      hidden,
		CommonCount: commonCount,
		Lambda:      lambda,
		Xi:          xi,
		Secure:      stats,
	}, nil
}
