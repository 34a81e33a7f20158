// Command eppi-construct builds an ε-PPI over a synthetic information
// network and prints the construction statistics: per-owner β values,
// common-identity mixing, search cost, and (in secure mode) the protocol
// traffic and circuit sizes.
//
// Usage:
//
//	eppi-construct -providers 100 -owners 50 [-policy chernoff] [-gamma 0.9]
//	eppi-construct -providers 12 -owners 8 -secure -c 3 [-tcp]
//	eppi-construct -providers 12 -owners 8 -secure -trace run.json
//	eppi-construct -providers 100 -owners 50 -out index.eppi
//	eppi-construct -providers 100 -owners 50 -shards 4 -out shards/
//	eppi-construct -providers 100 -owners 50 -shards 4 -epoch-dir store/
//
// -out exports the constructed index as a checksummed snapshot that
// eppi-serve -index loads. With -shards N the index is column-partitioned
// N ways instead and -out names a directory receiving one snapshot per
// shard plus a checksummed manifest; eppi-serve -index dir -shard k/N
// serves one shard of it, fronted by eppi-gateway.
//
// -epoch-dir publishes the index into an epoch store instead: the shard
// set is written under epochs/<n>/ and the store's CURRENT pointer is
// atomically flipped to the new epoch, so eppi-serve -epoch-dir nodes
// hot-swap to it without restarting. Re-running the command against the
// same store publishes the next epoch. Each epoch carries its ε-audit
// privacy report (epochs/<n>/privacy.json, internal/privacy): the
// achieved per-ε-decile false-positive protection of the published
// matrix, re-derived from M vs M' rather than trusted from the β math.
//
// -trace records a span tree of the whole construction — β-phase,
// SecSumShare, per-batch MPC with GMW/OT phases, mixing, publication —
// and writes it as Chrome trace-event JSON (load it in Perfetto).
// Progress logs are structured (log/slog, -log-level / -log-format).
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"

	"repro/internal/bitmat"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/index"
	"repro/internal/logx"
	"repro/internal/mathx"
	"repro/internal/metrics"
	"repro/internal/privacy"
	"repro/internal/shard"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/workload"
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
	policyName := fs.String("policy", "chernoff", "β policy: basic|inc-exp|chernoff")
	delta := fs.Float64("delta", 0.02, "Δ for the inc-exp policy")
	gamma := fs.Float64("gamma", 0.9, "γ for the chernoff policy")
	secure := fs.Bool("secure", false, "run the real SecSumShare+MPC protocol")
	c := fs.Int("c", 3, "coordinator count (secure mode)")
	tcp := fs.Bool("tcp", false, "use TCP loopback transport (secure mode)")
	seed := fs.Int64("seed", 1, "random seed")
	workers := fs.Int("workers", 0, "construction worker pool size (0 = NumCPU); output is identical at any value")
	zipf := fs.Float64("zipf", 1.1, "Zipf exponent of identity frequencies")
	outPath := fs.String("out", "", "export the index: a snapshot file, or a shard-set directory with -shards")
	shards := fs.Int("shards", 0, "with -out or -epoch-dir: column-partition the index into this many shards + manifest")
	epochDir := fs.String("epoch-dir", "", "publish the index as the next epoch of this epoch store (atomic CURRENT flip)")
	epochKeep := fs.Int("epoch-keep", 0, "with -epoch-dir: keep only the newest N epochs after publishing (0 = keep all; the epoch named by CURRENT is never pruned)")
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON of the construction to this file")
	metricsOut := fs.String("metrics-out", "", "write a Prometheus text exposition of the run (eppi_build_info, runtime gauges) to this file")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn, error")
	logFormat := fs.String("log-format", "text", "log format: text or json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := logx.New(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}

	var policy mathx.Policy
	switch *policyName {
	case "basic":
		policy = mathx.PolicyBasic
	case "inc-exp":
		policy = mathx.PolicyIncremented
	case "chernoff":
		policy = mathx.PolicyChernoff
	default:
		return fmt.Errorf("unknown policy %q", *policyName)
	}

	d, err := workload.GenerateZipf(workload.ZipfConfig{
		Providers: *providers,
		Owners:    *owners,
		Exponent:  *zipf,
		Seed:      *seed,
	})
	if err != nil {
		return err
	}

	cfg := core.Config{
		Policy:  policy,
		Delta:   *delta,
		Gamma:   *gamma,
		Mode:    core.ModeTrusted,
		Seed:    *seed,
		Workers: *workers,
	}
	if *secure {
		cfg.Mode = core.ModeSecure
		cfg.C = *c
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
	// A batch job's metrics live in one terminal snapshot, not a scrape
	// loop: the registry exists so construct runs are attributable the
	// same way fleet scrapes are (eppi_build_info join).
	reg := metrics.NewRegistry()
	metrics.RegisterBuildInfo(reg)
	metrics.RegisterRuntime(reg)
	version, goVersion, revision := metrics.BuildInfo()
	logger.Info("constructing",
		slog.Int("providers", *providers), slog.Int("owners", *owners),
		slog.String("policy", policy.String()), slog.String("mode", cfg.Mode.String()),
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
	// Audit what was actually constructed before anything is exported:
	// the report re-derives the achieved FP protection from M vs M'
	// (internal/privacy) and travels with every epoch publication. The
	// operator-only detail (identity ε deciles, full violation records)
	// is published alongside it as privacy_detail.json for eppi-audit —
	// it stays a filesystem artifact and is never served.
	rep, det, err := privacy.Compute(privacy.Input{
		Truth: d.Matrix, Published: res.Published, Names: d.Names, Eps: d.Eps,
		Thresholds: res.Thresholds, Hidden: res.Hidden,
		Policy: policy.String(), Gamma: *gamma,
		Lambda: res.Lambda, Xi: res.Xi,
	})
	if err != nil {
		return fmt.Errorf("privacy audit: %w", err)
	}
	if *epochDir != "" {
		if *outPath != "" {
			return fmt.Errorf("-epoch-dir and -out are mutually exclusive")
		}
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
	} else if *outPath != "" {
		if err := export(*outPath, *shards, res.Published, d.Names, logger); err != nil {
			return err
		}
	} else if *shards > 0 {
		return fmt.Errorf("-shards %d needs -out naming the shard-set directory", *shards)
	}
	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, reg); err != nil {
			return err
		}
		logger.Info("metrics snapshot written", slog.String("path", *metricsOut))
	}

	fmt.Fprintf(out, "constructed ε-PPI: m=%d providers, n=%d owners, policy=%s, mode=%s\n",
		*providers, *owners, policy, cfg.Mode)
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

// export writes the constructed index to disk: a single checksummed
// snapshot file, or (shards > 0) a directory of per-shard snapshots plus
// a checksummed manifest that eppi-serve -shard and eppi-gateway consume.
func export(path string, shards int, published *bitmat.Matrix, names []string, logger *slog.Logger) error {
	if shards > 0 {
		if err := os.MkdirAll(path, 0o755); err != nil {
			return fmt.Errorf("export: %w", err)
		}
		man, err := shard.WriteSet(path, published, names, shards)
		if err != nil {
			return fmt.Errorf("export shard set: %w", err)
		}
		logger.Info("shard set written", slog.String("dir", path),
			slog.Int("shards", man.Shards), slog.Int("owners", man.Owners))
		return nil
	}
	srv, err := index.NewServer(published, names)
	if err != nil {
		return fmt.Errorf("export: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("export: %w", err)
	}
	if _, err := srv.WriteTo(f); err != nil {
		f.Close()
		return fmt.Errorf("export: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("export: %w", err)
	}
	logger.Info("index written", slog.String("path", path),
		slog.Int("owners", srv.Owners()))
	return nil
}

// writeMetrics dumps the run's Prometheus exposition to a file — the
// batch-job analogue of a /v1/metrics scrape.
func writeMetrics(path string, reg *metrics.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if _, err := reg.WriteTo(f); err != nil {
		f.Close()
		return fmt.Errorf("metrics: %w", err)
	}
	return f.Close()
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
