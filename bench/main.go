// Command bench is the repository's benchmark: one run of one workload
// through the whole ε-PPI pipeline — generate, construct, audit, publish,
// replicate, load, swap, serve through the gateway — in one process over
// loopback sockets, every answer checked against the harness's own oracle.
//
//	bash bench/run.sh --workload trusted-cold --seed 1 --seconds 51 --trace 0
//	go run -C bench . -workload trusted-cold -seed 1
//	go run -C bench . -stability -runs 10 > bench/STABILITY.md
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics — the end-to-end ones with -trace 0, the per-layer
// ones with -trace 1. README.md has the tables.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 51

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := cli(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func cli(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: trusted-cold, secure-hot")
	seed := fs.Int64("seed", 1, "drives the generator, core.Config.Seed and owner sampling")
	secs := fs.Float64("seconds", defaultSeconds, "measured seconds: half serve, half build")
	traced := fs.Int("trace", 0, "1: record spans, run the per-layer probes, write trace-<workload>.json, print the per-layer metrics")
	tmp := fs.String("tmp", ".bench_build", "directory for everything a run writes (epoch stores, mirrors, traces)")
	stability := fs.Bool("stability", false, "run every workload -runs times, twice, and compare the two sets against BENCHMARK.json's bounds")
	runs := fs.Int("runs", 3, "with -stability: runs per workload per set")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *stability {
		return stabilityReport(ctx, out, *runs, *secs)
	}
	sp, err := findSpec(*name)
	if err != nil {
		return err
	}
	if *secs <= 0 {
		return fmt.Errorf("-seconds %g must be positive", *secs)
	}
	res, err := run(ctx, sp, *seed, *secs, *traced != 0, *tmp)
	if err != nil {
		return fmt.Errorf("%s: %w", sp.name, err)
	}
	return res.print(out, *traced != 0)
}

// line is the contract's result object.
type line struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes every metric by name with its unit, then the result line.
// A traced run prints its end-to-end numbers too, for reading next to an
// untraced run, but only the per-layer ones go into the result line.
func (r *result) print(out io.Writer, traced bool) error {
	fmt.Fprintln(out, r.info)
	emit := func(table []metric, values map[string]float64) (map[string]metricValue, error) {
		ms := make(map[string]metricValue, len(table))
		for _, m := range table {
			v, ok := values[m.name]
			if !ok {
				return nil, fmt.Errorf("metric %s was not measured", m.name)
			}
			fmt.Fprintf(out, "%-34s %16.6f %s\n", m.name, v, m.unit)
			ms[m.name] = metricValue{Value: v, Unit: m.unit}
		}
		return ms, nil
	}
	ms, err := emit(endToEnd, r.endToEnd)
	if err != nil {
		return err
	}
	if traced {
		if ms, err = emit(perLayer, r.perLayer); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "%-34s %16.6f ratio\n", "failed_share", float64(r.failed)/float64(r.attempted))
	raw, err := json.Marshal(line{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", raw)
	return err
}
