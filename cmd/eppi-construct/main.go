// Command eppi-construct builds an ε-PPI over a synthetic information
// network and prints the construction statistics: per-owner β values,
// common-identity mixing, search cost, and (in secure mode) the protocol
// traffic and circuit sizes.
//
// Usage:
//
//	eppi-construct -providers 100 -owners 50
//	eppi-construct -providers 12 -owners 8 -secure -c 3 [-tcp]
//	eppi-construct -providers 12 -owners 8 -secure -trace run.json
//	eppi-construct -providers 100 -owners 50 -shards 4 -epoch-dir store/
//
// -epoch-dir publishes the index into an epoch store, the one artefact
// eppi-serve boots from: the index is column-partitioned -shards ways
// (default 1), the shard set is written under epochs/<n>/ with a
// checksummed manifest, and the store's CURRENT pointer is atomically
// flipped to the new epoch, so eppi-serve -epoch-dir nodes hot-swap to it
// without restarting. Re-running the command against the same store
// publishes the next epoch. Without -epoch-dir the command only prints
// its statistics. Each epoch carries its ε-audit privacy report
// (epochs/<n>/privacy.json, internal/privacy): the achieved per-ε-decile
// false-positive protection of the published matrix, re-derived from M vs
// M' rather than trusted from the β math.
//
// -secure runs the coordinator MPC as three bit-sliced GMW executions
// over all owners, opening only the total common count.
//
// -trace records a span tree of the whole construction — β-phase,
// SecSumShare, the MPC executions with GMW/OT phases, mixing, publication —
// and writes it as Chrome trace-event JSON (load it in Perfetto).
// Progress logs are structured (log/slog, -log-level / -log-format).
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/logx"
	"repro/internal/mathx"
	"repro/internal/metrics"
	"repro/internal/privacy"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/workload"
)

// The construction runs the paper's recommended policy, Chernoff with
// success ratio γ, over a Zipf dataset: the values eppi-query and
// eppi-collude use too.
const (
	gamma        = 0.9
	zipfExponent = 1.1
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "eppi-construct:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("eppi-construct", flag.ContinueOnError)
	providers := fs.Int("providers", 100, "number of providers m")
	owners := fs.Int("owners", 50, "number of owner identities n")
	secure := fs.Bool("secure", false, "run the real SecSumShare+MPC protocol")
	c := fs.Int("c", core.DefaultCoordinators, "coordinator count: the secure protocol's coordinators, whose mixing coins a trusted build XORs too")
	tcp := fs.Bool("tcp", false, "use TCP loopback transport (secure mode)")
	seed := fs.Int64("seed", 1, "random seed")
	workers := fs.Int("workers", 0, "construction worker pool size (0 = NumCPU); output is identical at any value")
	shards := fs.Int("shards", 0, "with -epoch-dir: column-partition the index into this many shards + manifest (0 = 1)")
	epochDir := fs.String("epoch-dir", "", "publish the index as the next epoch of this epoch store (atomic CURRENT flip)")
	epochKeep := fs.Int("epoch-keep", 0, "with -epoch-dir: keep only the newest N epochs after publishing (0 = keep all; the epoch named by CURRENT is never pruned)")
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON of the construction to this file")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn, error")
	logFormat := fs.String("log-format", "text", "log format: text or json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := logx.New(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	if *shards > 0 && *epochDir == "" {
		return fmt.Errorf("-shards %d needs -epoch-dir naming the epoch store", *shards)
	}

	d, err := workload.GenerateZipf(workload.ZipfConfig{
		Providers: *providers,
		Owners:    *owners,
		Exponent:  zipfExponent,
		Seed:      *seed,
	})
	if err != nil {
		return err
	}

	cfg := core.Config{
		Policy:  mathx.PolicyChernoff,
		Gamma:   gamma,
		Mode:    core.ModeTrusted,
		C:       *c,
		Seed:    *seed,
		Workers: *workers,
	}
	if *secure {
		cfg.Mode = core.ModeSecure
		if *tcp {
			cfg.NewNetwork = func(parties int) (transport.Network, error) {
				return transport.NewTCP(parties)
			}
		}
	}
	var tracer *trace.Tracer
	if *tracePath != "" {
		tracer = trace.New(1)
		cfg.Tracer = tracer
	}
	version, goVersion, revision := metrics.BuildInfo()
	logger.Info("constructing",
		slog.Int("providers", *providers), slog.Int("owners", *owners),
		slog.String("policy", cfg.Policy.String()), slog.String("mode", cfg.Mode.String()),
		slog.Bool("traced", tracer != nil),
		slog.String("build", version+"/"+goVersion+"/"+revision))
	res, err := core.Construct(d.Matrix, d.Eps, cfg)
	if err != nil {
		return err
	}
	if tracer != nil {
		if err := writeTrace(*tracePath, tracer); err != nil {
			return err
		}
		logger.Info("trace written", slog.String("path", *tracePath))
	}
	// Audit what was actually constructed before anything is published:
	// the report re-derives the achieved FP protection from M vs M'
	// (internal/privacy) and travels with every epoch publication. The
	// operator-only detail (identity ε deciles, full violation records)
	// is published alongside it as privacy_detail.json for eppi-audit —
	// it stays a filesystem artifact and is never served.
	rep, det, err := privacy.Compute(privacy.Input{
		Truth: d.Matrix, Published: res.Published, Names: d.Names, Eps: d.Eps,
		Thresholds: res.Thresholds, Hidden: res.Hidden,
		Policy: cfg.Policy.String(), Gamma: gamma,
		Lambda: res.Lambda, Xi: res.Xi,
	})
	if err != nil {
		return fmt.Errorf("privacy audit: %w", err)
	}
	if *epochDir != "" {
		n := *shards
		if n <= 0 {
			n = 1
		}
		pub := epoch.Publisher{Root: *epochDir, Keep: *epochKeep}
		e, err := pub.PublishWithReport(res.Published, d.Names, n, rep, det)
		if err != nil {
			return fmt.Errorf("publish epoch: %w", err)
		}
		logger.Info("epoch published", slog.String("dir", *epochDir),
			slog.Uint64("epoch", e), slog.Int("shards", n),
			slog.Float64("success_ratio", rep.SuccessRatio),
			slog.Int("privacy_violations", rep.ViolationCount))
	}
	fmt.Fprintf(out, "constructed ε-PPI: m=%d providers, n=%d owners, policy=%s, mode=%s\n",
		*providers, *owners, cfg.Policy, cfg.Mode)
	fmt.Fprintf(out, "  true commons:   %d\n", res.CommonCount)
	fmt.Fprintf(out, "  mixing λ:       %.4f (ξ=%.3f)\n", res.Lambda, res.Xi)
	hidden := 0
	for _, h := range res.Hidden {
		if h {
			hidden++
		}
	}
	fmt.Fprintf(out, "  published common set: %d identities\n", hidden)
	searchCost, truePositives := res.Published.Count(), d.Matrix.Count()
	fmt.Fprintf(out, "  search cost:    %d published positives (%d true, %.2fx overhead)\n",
		searchCost, truePositives, float64(searchCost)/float64(truePositives))
	fmt.Fprintf(out, "  privacy audit:  success ratio %.4f, %d Eq.1 violations\n",
		rep.SuccessRatio, rep.ViolationCount)
	if res.Secure != nil {
		s := res.Secure
		fmt.Fprintf(out, "  SecSumShare:    %d msgs, %d bytes, %d rounds\n", s.SecSum.Messages, s.SecSum.Bytes, s.SecSumRounds)
		fmt.Fprintf(out, "  CountBelow:     %d gates (%d AND, depth %d)\n",
			s.CountBelowCircuit.Gates, s.CountBelowCircuit.AndGates, s.CountBelowCircuit.AndDepth)
		fmt.Fprintf(out, "  Reveal:         %d gates (%d AND, depth %d)\n",
			s.RevealCircuit.Gates, s.RevealCircuit.AndGates, s.RevealCircuit.AndDepth)
		fmt.Fprintf(out, "  MPC traffic:    %d msgs, %d bytes, %d rounds\n", s.MPC.Messages, s.MPC.Bytes, s.MPCRounds)
	}
	fmt.Fprintln(out, "sample owner outcomes (first 10):")
	for j := 0; j < len(d.Names) && j < 10; j++ {
		fmt.Fprintf(out, "  %-34s freq=%-5d ε=%.2f β=%.4f hidden=%v\n",
			d.Names[j], d.Frequency(j), d.Eps[j], res.Betas[j], res.Hidden[j])
	}
	return nil
}

// writeTrace exports the tracer's recorded construction trace as Chrome
// trace-event JSON.
func writeTrace(path string, tracer *trace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := trace.WriteChrome(f, tracer.Recent()); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}
