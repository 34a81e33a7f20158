// Package experiments reproduces every table and figure of the ε-PPI
// paper's evaluation (Section V). Each experiment returns a Figure (series
// of x/y points) or a TableResult that renders the same rows/series the
// paper reports:
//
//	Fig4a  success ratio vs identity frequency, ε-PPI vs grouping PPIs
//	Fig4b  success ratio vs ε, ε-PPI vs grouping PPIs
//	Fig5a  success ratio of the three β policies vs identity frequency
//	Fig5b  success ratio of the three β policies vs provider count
//	Fig6a  construction time vs party count, ε-PPI vs pure MPC
//	Fig6b  circuit size vs party count, ε-PPI vs pure MPC
//	Fig6c  construction time vs identity count, ε-PPI vs pure MPC
//	Table2 privacy degrees under primary and common-identity attacks
//
// Absolute timings differ from the paper's Emulab/FairplayMP testbed; the
// comparisons preserve the paper's shapes (who wins, how costs scale).
package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/metrics"
)

// Options tunes experiment scale.
type Options struct {
	// Seed drives all randomness; equal seeds reproduce results exactly.
	Seed int64
	// Quick shrinks workloads (fewer providers/samples/parties) for test
	// suites and smoke runs; the full scale matches the paper.
	Quick bool
	// TCP runs the protocol-execution experiments (Fig 6a/6c) over real
	// TCP loopback sockets instead of the in-memory transport.
	TCP bool
	// Workers bounds the construction worker pool of every experiment's
	// core.Construct runs (0 = runtime.NumCPU()). Results are identical
	// at any worker count; only wall time changes.
	Workers int
	// Metrics, when non-nil, collects instrumentation across experiments:
	// index query fan-out (SearchCost), transport traffic and MPC phase
	// timers (Fig 6). eppi-bench embeds a snapshot of it in its output.
	Metrics *metrics.Registry
}

// Point is one measurement.
type Point struct {
	X float64
	Y float64
}

// Series is one labelled line of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Figure collects the series of one paper figure.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Render writes the figure as an aligned text table, one row per x value,
// one column per series.
func (f *Figure) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title)
	header := make([]string, 0, len(f.Series)+1)
	header = append(header, f.XLabel)
	for _, s := range f.Series {
		header = append(header, s.Label)
	}
	rows := [][]string{}
	if len(f.Series) > 0 {
		for i, p := range f.Series[0].Points {
			row := []string{trimFloat(p.X)}
			for _, s := range f.Series {
				if i < len(s.Points) {
					row = append(row, trimFloat(s.Points[i].Y))
				} else {
					row = append(row, "-")
				}
			}
			rows = append(rows, row)
		}
	}
	renderAligned(w, header, rows)
	fmt.Fprintf(w, "(y: %s)\n", f.YLabel)
}

// TableResult is one paper table.
type TableResult struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
}

// Render writes the table with aligned columns.
func (t *TableResult) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	renderAligned(w, t.Header, t.Rows)
}

func renderAligned(w io.Writer, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = pad(cell, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.4f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}
