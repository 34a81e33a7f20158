// Command eppi-bench regenerates the tables and figures of the ε-PPI
// paper's evaluation section.
//
// Usage:
//
//	eppi-bench -experiment fig4a [-seed 42] [-quick]
//	eppi-bench -experiment all
//
// Experiments: fig4a fig4b fig5a fig5b fig6a fig6a-model fig6b fig6c
// table2 searchcost ablation-mixing ablation-c ablation-rebuild all (-h
// lists them from the table run executes). Output is an aligned text
// rendering of the figure's series (one column per line in the paper's
// plot) or the table's rows. -quick shrinks the workloads for smoke runs;
// the default scale matches the paper (10,000 providers for Figures 4-5).
//
// Unless -metrics=false, text output ends with a "== metrics snapshot =="
// section: a JSON dump of the instrumentation gathered across the run
// (index query fan-out from searchcost, transport traffic and MPC phase
// timers from the Fig 6 protocol executions).
//
// Profiling: -cpuprofile, -memprofile and -exectrace write pprof CPU and
// heap profiles and a runtime/trace execution trace covering the whole
// run, for `go tool pprof` / `go tool trace` analysis of the protocol
// implementations at paper scale.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "eppi-bench:", err)
		os.Exit(1)
	}
}

type renderer interface {
	Render(io.Writer)
	RenderCSV(io.Writer) error
}

// experimentTable lists every experiment -experiment accepts, in the order
// -experiment all runs them.
var experimentTable = []struct {
	id  string
	gen func(experiments.Options) (renderer, error)
}{
	{"fig4a", wrapFig(experiments.Fig4a)},
	{"fig4b", wrapFig(experiments.Fig4b)},
	{"fig5a", wrapFig(experiments.Fig5a)},
	{"fig5b", wrapFig(experiments.Fig5b)},
	{"fig6a", wrapFig(experiments.Fig6a)},
	{"fig6a-model", wrapFig(experiments.Fig6aModelled)},
	{"fig6b", wrapFig(experiments.Fig6b)},
	{"fig6c", wrapFig(experiments.Fig6c)},
	{"table2", wrapTable(experiments.Table2)},
	{"searchcost", wrapTable(experiments.SearchCost)},
	{"ablation-mixing", wrapTable(experiments.AblationMixing)},
	{"ablation-c", wrapTable(experiments.AblationC)},
	{"ablation-rebuild", wrapTable(experiments.AblationRebuild)},
}

// experimentHelp is the -experiment usage string, built from
// experimentTable so the two cannot drift.
func experimentHelp() string {
	ids := make([]string, len(experimentTable))
	for i, exp := range experimentTable {
		ids[i] = exp.id
	}
	return "experiment id (" + strings.Join(ids, ", ") + ", or all)"
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("eppi-bench", flag.ContinueOnError)
	experiment := fs.String("experiment", "all", experimentHelp())
	seed := fs.Int64("seed", 42, "random seed")
	quick := fs.Bool("quick", false, "reduced scale for smoke runs")
	format := fs.String("format", "text", "output format: text|csv")
	workers := fs.Int("workers", 0, "construction worker pool size (0 = NumCPU); results are identical at any value")
	withMetrics := fs.Bool("metrics", true, "append a JSON metrics snapshot to text output")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile to this file at exit")
	execTrace := fs.String("exectrace", "", "write a runtime/trace execution trace to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *execTrace != "" {
		f, err := os.Create(*execTrace)
		if err != nil {
			return fmt.Errorf("exectrace: %w", err)
		}
		defer f.Close()
		if err := rtrace.Start(f); err != nil {
			return fmt.Errorf("exectrace: %w", err)
		}
		defer rtrace.Stop()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "eppi-bench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "eppi-bench: memprofile:", err)
			}
		}()
	}
	if *format != "text" && *format != "csv" {
		return fmt.Errorf("unknown format %q", *format)
	}
	opts := experiments.Options{Seed: *seed, Quick: *quick, Workers: *workers}
	var reg *metrics.Registry
	if *withMetrics {
		reg = metrics.NewRegistry()
		opts.Metrics = reg
	}

	ran := false
	for _, exp := range experimentTable {
		if *experiment != "all" && *experiment != exp.id {
			continue
		}
		ran = true
		start := time.Now()
		result, err := exp.gen(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", exp.id, err)
		}
		if *format == "csv" {
			if err := result.RenderCSV(out); err != nil {
				return fmt.Errorf("%s: %w", exp.id, err)
			}
			continue
		}
		result.Render(out)
		fmt.Fprintf(out, "[%s completed in %v]\n\n", exp.id, time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *experiment)
	}
	// The snapshot rides along with the text rendering only: CSV output is
	// meant to be machine-piped per experiment and must stay schema-clean.
	if reg != nil && *format == "text" {
		if err := writeSnapshot(out, reg); err != nil {
			return err
		}
	}
	return nil
}

// writeSnapshot appends the registry contents gathered across the run —
// index query fan-out, transport traffic, MPC phase timers — as one JSON
// document under a text banner.
func writeSnapshot(out io.Writer, reg *metrics.Registry) error {
	snap := reg.Snapshot()
	if len(snap) == 0 {
		return nil // nothing instrumented (e.g. compile-only experiments)
	}
	fmt.Fprintln(out, "== metrics snapshot ==")
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

func wrapFig(gen func(experiments.Options) (*experiments.Figure, error)) func(experiments.Options) (renderer, error) {
	return func(o experiments.Options) (renderer, error) { return gen(o) }
}

func wrapTable(gen func(experiments.Options) (*experiments.TableResult, error)) func(experiments.Options) (renderer, error) {
	return func(o experiments.Options) (renderer, error) { return gen(o) }
}
