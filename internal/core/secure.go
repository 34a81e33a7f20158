package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bitmat"
	"repro/internal/circuit"
	"repro/internal/field"
	"repro/internal/gmw"
	"repro/internal/mathx"
	"repro/internal/parallel"
	"repro/internal/secretshare"
	"repro/internal/secsum"
	"repro/internal/trace"
	"repro/internal/transport"
)

// addCircuitStats accumulates per-batch circuit statistics (sizes add;
// depth takes the maximum: each batch's rounds are its own depth, and
// concurrent batches do not deepen any single circuit).
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

// pickBatchErr selects the error to surface from a set of per-batch
// results: the first (lowest-batch) error that is not a transport-closed
// cascade, falling back to the first error. When one batch fails the
// whole mux is closed to abort its siblings, so most entries are
// ErrClosed victims of the real failure.
func pickBatchErr(errs []error) error {
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if first == nil || (errors.Is(first, transport.ErrClosed) && !errors.Is(err, transport.ErrClosed)) {
			first = err
		}
	}
	return first
}

// constructSecure runs the real distributed pipeline of Section IV:
//
//	Stage A (m providers): SecSumShare → c coordinator share vectors over
//	        the additive group Z_{2^k}, k = bits(m+1).
//	Stage B (c coordinators, GMW): CountBelow → public common count.
//	        λ is then computed publicly from the count (Equation 7).
//	Stage C (c coordinators, GMW): Reveal → per identity, a hidden bit
//	        (common ∨ mixed) and the frequency, opened only when not
//	        hidden. β follows Equation 6.
//	Phase 2 (every provider, local): randomized publication.
//
// The identity batches of stages B and C are independent computations, so
// they run concurrently (up to Config.Workers), each over its own logical
// session of one shared coordinator network (transport.SessionMux) so
// concurrent batches never interleave messages. Per-batch randomness —
// protocol seeds and mixing coins — derives from (Seed, stage stream,
// batch index), keeping the whole run bit-identical at any worker count.
// With Config.Wide, stages B and C are instead three bit-sliced executions
// over all identities at once (secure_wide.go).
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
	newNet := cfg.NewNetwork
	if newNet == nil {
		newNet = func(parties int) (transport.Network, error) { return transport.NewInMem(parties) }
	}
	shareBits := circuit.BitsNeeded(uint64(m + 1))
	groupBits := shareBits
	if cfg.Wide {
		// The wide comparator folds the public threshold into party
		// 0's share and reads the sign bit of freq − t, which needs one bit
		// of sign slack: shares live in Z_{2^W}, W = bits(m+1) + 1. The
		// wider group changes no frequency (Σ shares mod 2^W = freq because
		// freq ≤ m < 2^(W−1)), so the published matrix is unaffected.
		groupBits++
	}
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
	provNet, err := newNet(m)
	if err != nil {
		return nil, fmt.Errorf("provider network: %w", err)
	}
	transport.Instrument(provNet, cfg.Metrics)
	_, ssSpan := trace.StartChild(ctx, "secsum.share")
	transport.AttachSpan(provNet, ssSpan)
	sumRes, err := secsum.RunBits(provNet, scheme, n, truth.RowWords, cfg.Seed)
	ssSpan.End()
	closeErr := provNet.Close()
	if err != nil {
		return nil, fmt.Errorf("SecSumShare: %w", err)
	}
	if closeErr != nil {
		return nil, fmt.Errorf("provider network close: %w", closeErr)
	}
	stats.SecSum = sumRes.Stats
	stats.SecSumRounds = sumRes.Rounds

	// One physical coordinator network for the whole run, multiplexed into
	// per-batch sessions so concurrent batches cannot interleave messages.
	// Registry instrumentation sits on the physical network (each wire
	// message counted once); spans attach per session (exact per-batch
	// attribution).
	coordNet, err := newNet(c)
	if err != nil {
		return nil, fmt.Errorf("coordinator network: %w", err)
	}
	transport.Instrument(coordNet, cfg.Metrics)
	mux := transport.NewSessionMux(coordNet)
	defer mux.Close()

	// runMPC executes one coordinator-side secure computation over its own
	// session, sourcing preprocessing per the configuration (sharded
	// dealer, or pairwise OT run over the same session before the online
	// phase). Each invocation is one span (stage names the circuit, lo/hi
	// the identity batch); the session carries it so the GMW/OT phase
	// spans nest underneath. On failure the whole mux is closed so
	// sibling batches abort promptly instead of waiting on a dead peer.
	runMPC := func(stage string, sessID uint32, lo, hi int, circ *circuit.Circuit, inputs [][]bool, seed int64) (*gmw.Result, error) {
		sess, err := mux.Session(sessID)
		if err != nil {
			return nil, fmt.Errorf("coordinator session: %w", err)
		}
		_, mpcSpan := trace.StartChild(ctx, stage,
			trace.Int("batch_lo", lo), trace.Int("batch_hi", hi))
		transport.AttachSpan(sess, mpcSpan)
		defer mpcSpan.End()
		var res *gmw.Result
		if cfg.Triples == TripleOT {
			triples, terr := gmw.GenTriplesOT(sess, circ.Stats().AndGates, seed+7919)
			if terr != nil {
				sess.Close()
				mux.Close()
				return nil, fmt.Errorf("OT preprocessing: %w", terr)
			}
			res, err = gmw.RunWithTriples(sess, circ, inputs, triples, seed)
		} else {
			var triples []gmw.PartyTriples
			triples, err = gmw.GenTriplesSharded(seed, c, circ.Stats().AndGates, workers)
			if err == nil {
				res, err = gmw.RunWithTriples(sess, circ, inputs, triples, seed)
			}
		}
		sess.Close()
		if err != nil {
			mux.Close()
			return nil, err
		}
		return res, nil
	}

	// In wide mode the per-batch stages below are replaced by three
	// bit-sliced executions over all n identities; the batch geometry of
	// the released counts, the coin streams and every opened value stay
	// identical to the scalar path.
	var ws *wideState
	if cfg.Wide {
		ws = &wideState{
			ctx:        ctx,
			cfg:        cfg,
			mux:        mux,
			c:          c,
			w:          groupBits,
			m:          m,
			n:          n,
			words:      (n + gmw.WideLanes - 1) / gmw.WideLanes,
			workers:    workers,
			shares:     sumRes.CoordinatorShares,
			thresholds: thresholds,
		}
	}

	// --- Stage B: CountBelow among the c coordinators ----------------------
	// Identities are processed in batches (Config.BatchSize) so circuit
	// size and memory stay bounded for large n; the batches are
	// independent and run concurrently up to Workers. The per-batch common
	// counts are summed into the global count; batch boundaries are public
	// parameters, so the extra release is the count granularity only. The
	// wide path opens the same per-batch counts from one execution.
	batch := cfg.BatchSize
	if batch <= 0 || batch > n {
		batch = n
	}
	nb := (n + batch - 1) / batch
	mpcStart := time.Now()
	var cbOuts []wideOut
	if cfg.Wide {
		out, err := ws.countBelow(batch, nb)
		if err != nil {
			return nil, fmt.Errorf("wide CountBelow: %w", err)
		}
		cbOuts = []wideOut{out}
	} else {
		cbOuts = make([]wideOut, nb)
		cbErrs := make([]error, nb)
		parallel.For(workers, nb, func(b int) error {
			lo := b * batch
			hi := lo + batch
			if hi > n {
				hi = n
			}
			cbCirc, err := circuit.CountBelowCached(circuit.CountBelowParams{
				Parties:    c,
				Identities: hi - lo,
				ShareBits:  shareBits,
				Thresholds: thresholds[lo:hi],
				Arithmetic: cfg.Arithmetic,
			})
			if err != nil {
				cbErrs[b] = fmt.Errorf("compile CountBelow [%d:%d]: %w", lo, hi, err)
				return cbErrs[b]
			}
			cbInputs := make([][]bool, c)
			for k := 0; k < c; k++ {
				bits := make([]bool, 0, (hi-lo)*shareBits)
				for j := lo; j < hi; j++ {
					bits = append(bits, circuit.PackBits(sumRes.CoordinatorShares[k][j], shareBits)...)
				}
				cbInputs[k] = bits
			}
			cbRes, err := runMPC("mpc.countbelow", uint32(1+2*b), lo, hi, cbCirc, cbInputs,
				mathx.DeriveSeed(cfg.Seed, seedStreamCountBelow, uint64(b)))
			if err != nil {
				cbErrs[b] = fmt.Errorf("CountBelow MPC [%d:%d]: %w", lo, hi, err)
				return cbErrs[b]
			}
			cbOuts[b] = wideOut{
				circ:   cbCirc.Stats(),
				count:  int(circuit.UnpackBits(cbRes.Outputs)),
				stats:  cbRes.Stats,
				rounds: cbRes.Rounds,
			}
			return nil
		})
		if err := pickBatchErr(cbErrs); err != nil {
			return nil, err
		}
	}
	commonCount := 0
	for _, out := range cbOuts { // reduce in batch order: deterministic accounting
		stats.CountBelowCircuit = addCircuitStats(stats.CountBelowCircuit, out.circ)
		commonCount += out.count
		stats.MPC.Messages += out.stats.Messages
		stats.MPC.Bytes += out.stats.Bytes
		stats.MPCRounds += out.rounds
	}

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
	if err != nil {
		mixSpan.End()
		return nil, err
	}
	coinBits := cfg.coinBits()
	coinMod := uint64(1) << uint(coinBits)
	mixThreshold := uint64(lambda * float64(coinMod))
	if mixThreshold >= coinMod {
		mixThreshold = coinMod - 1 // λ ≈ 1 clamped to the coin resolution
	}
	mixSpan.End()

	// --- Stage C: Reveal among the c coordinators (same batching) ----------
	// Mixing coins derive per batch from (Seed, seedStreamCoins, batch),
	// so the coin sequence of a batch does not depend on which batches ran
	// before it — the prerequisite for running them concurrently while
	// keeping the run reproducible.
	hidden := make([]bool, n)
	betas := make([]float64, n)
	per := 1 + shareBits
	var rvOuts []wideOut
	if cfg.Wide {
		out, err := ws.reveal(batch, coinBits, coinMod, mixThreshold, eps, hidden, betas)
		if err != nil {
			return nil, fmt.Errorf("wide Reveal: %w", err)
		}
		rvOuts = []wideOut{out}
	} else {
		rvOuts = make([]wideOut, nb)
		rvErrs := make([]error, nb)
		parallel.For(workers, nb, func(b int) error {
			lo := b * batch
			hi := lo + batch
			if hi > n {
				hi = n
			}
			rvCirc, err := circuit.RevealCached(circuit.RevealParams{
				Parties:      c,
				Identities:   hi - lo,
				ShareBits:    shareBits,
				Thresholds:   thresholds[lo:hi],
				CoinBits:     coinBits,
				MixThreshold: mixThreshold,
				Arithmetic:   cfg.Arithmetic,
			})
			if err != nil {
				rvErrs[b] = fmt.Errorf("compile Reveal [%d:%d]: %w", lo, hi, err)
				return rvErrs[b]
			}
			coinRng := rand.New(rand.NewSource(mathx.DeriveSeed(cfg.Seed, seedStreamCoins, uint64(b))))
			rvInputs := make([][]bool, c)
			for k := 0; k < c; k++ {
				bits := make([]bool, 0, (hi-lo)*(shareBits+coinBits))
				for j := lo; j < hi; j++ {
					bits = append(bits, circuit.PackBits(sumRes.CoordinatorShares[k][j], shareBits)...)
					bits = append(bits, circuit.PackBits(coinRng.Uint64()%coinMod, coinBits)...)
				}
				rvInputs[k] = bits
			}
			rvRes, err := runMPC("mpc.reveal", uint32(2+2*b), lo, hi, rvCirc, rvInputs,
				mathx.DeriveSeed(cfg.Seed, seedStreamReveal, uint64(b)))
			if err != nil {
				rvErrs[b] = fmt.Errorf("Reveal MPC [%d:%d]: %w", lo, hi, err)
				return rvErrs[b]
			}

			// Decode per-identity (hidden, maskedFreq) and derive β (Eq. 6).
			// Batches write disjoint [lo:hi) ranges of hidden/betas.
			if len(rvRes.Outputs) != per*(hi-lo) {
				rvErrs[b] = fmt.Errorf("core: reveal output length %d, want %d", len(rvRes.Outputs), per*(hi-lo))
				return rvErrs[b]
			}
			for j := lo; j < hi; j++ {
				off := (j - lo) * per
				hidden[j] = rvRes.Outputs[off]
				if hidden[j] {
					betas[j] = 1
					continue
				}
				freq := circuit.UnpackBits(rvRes.Outputs[off+1 : off+per])
				sigma := float64(freq) / float64(m)
				bv, err := mathx.Beta(cfg.Policy, mathx.BetaParams{
					Sigma: sigma, Epsilon: eps[j], M: m, Delta: cfg.Delta, Gamma: cfg.Gamma,
				})
				if err != nil {
					rvErrs[b] = fmt.Errorf("β for identity %d: %w", j, err)
					return rvErrs[b]
				}
				betas[j] = bv
			}
			rvOuts[b] = wideOut{circ: rvCirc.Stats(), stats: rvRes.Stats, rounds: rvRes.Rounds}
			return nil
		})
		if err := pickBatchErr(rvErrs); err != nil {
			return nil, err
		}
	}
	for _, out := range rvOuts {
		stats.RevealCircuit = addCircuitStats(stats.RevealCircuit, out.circ)
		stats.MPC.Messages += out.stats.Messages
		stats.MPC.Bytes += out.stats.Bytes
		stats.MPCRounds += out.rounds
	}
	stats.MPCWall = time.Since(mpcStart)
	if cfg.Wide {
		if g := cfg.Metrics.Gauge("eppi_gmw_slab_waste_slots",
			"Padded lanes in the final word of the wide CountBelow and Reveal executions of the most recent secure construction (both passes counted; 0 when the identity count is a multiple of 64)."); g != nil {
			g.Set(float64(2 * (gmw.WideLanes*ws.words - n)))
		}
	}
	if err := mux.Close(); err != nil {
		return nil, fmt.Errorf("coordinator network close: %w", err)
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
