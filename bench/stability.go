package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

// stabilityReport is the driver's acceptance test run at home: every
// workload runs times in each of two sets, each run its own process; run i
// of either set has seed i, so the two sets differ by the machine alone. Per end-to-end metric it prints both sets' medians and
// quartiles, the spread (Q3 − Q1 over the median, quartiles as Python's
// statistics.quantiles gives them) and how much worse the second median
// is than the first, and it fails when a spread (setup_s excepted) or a
// drift exceeds the metric's bound.
func stabilityReport(ctx context.Context, out io.Writer, runs int, secs float64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	begin := time.Now()
	fmt.Fprintf(out, "# bench -stability\n\n")
	fmt.Fprintf(out, "%d runs per workload per set, %g measured seconds each; seeds 1..%d in both sets; nproc %d, %s.\n\n",
		runs, secs, runs, runtime.NumCPU(), runtime.Version())
	fmt.Fprintf(out, "spread = (Q3 − Q1) / median within a set; drift = how much worse B's median is than A's. Both must stay within the bound (setup_s: drift only), or the pair is **over** and the command fails; a pair whose spread is within the bound but above a third of it is marked wide.\n")
	bad := 0
	for _, sp := range specs {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for i := 1; i <= runs; i++ {
				ln, err := runChild(ctx, self, sp.name, int64(i), secs)
				if err != nil {
					return err
				}
				if !ln.Correct {
					return fmt.Errorf("%s seed %d: %d of %d failed", sp.name, i, ln.Failed, ln.Attempted)
				}
				for name, v := range ln.Metrics {
					sets[s][name] = append(sets[s][name], v.Value)
				}
			}
		}
		fmt.Fprintf(out, "\n## %s\n\n", sp.name)
		fmt.Fprintf(out, "| metric | unit | A median | A Q1..Q3 | A spread | B median | B Q1..Q3 | B spread | drift | bound | |\n|---|---|---|---|---|---|---|---|---|---|---|\n")
		for _, m := range endToEnd {
			a, b := sets[0][m.name], sets[1][m.name]
			ma, mb := median(a), median(b)
			a1, a3 := quartiles(a)
			b1, b3 := quartiles(b)
			sa, sb := (a3-a1)/ma, (b3-b1)/mb
			drift := (mb - ma) / ma
			if m.better == "higher" {
				drift = -drift
			}
			verdict := "ok"
			switch widest := max(sa, sb); {
			case drift > m.bound || (m.name != "setup_s" && widest > m.bound):
				verdict = "**over**"
				bad++
			case m.name != "setup_s" && widest > m.bound/3:
				verdict = "wide"
			}
			fmt.Fprintf(out, "| %s | %s | %.5g | %.5g..%.5g | %.2f%% | %.5g | %.5g..%.5g | %.2f%% | %+.2f%% | %g%% | %s |\n",
				m.name, m.unit, ma, a1, a3, 100*sa, mb, b1, b3, 100*sb, 100*drift, 100*m.bound, verdict)
		}
	}
	fmt.Fprintf(out, "\n%d runs in %s.\n", 2*runs*len(specs), time.Since(begin).Round(time.Second))
	if bad > 0 {
		return fmt.Errorf("%d metric/workload pairs over their bound", bad)
	}
	return nil
}

// runChild runs one workload in a fresh process and parses its last line.
func runChild(ctx context.Context, self, workload string, seed int64, secs float64) (*line, error) {
	cmd := exec.CommandContext(ctx, self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(secs, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	rows := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	var ln line
	if err := json.Unmarshal(rows[len(rows)-1], &ln); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line: %w", workload, seed, err)
	}
	return &ln, nil
}
