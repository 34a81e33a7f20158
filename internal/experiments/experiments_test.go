package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"unicode/utf8"
)

func sscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}

var quickOpts = Options{Seed: 42, Quick: true}

func findSeries(t *testing.T, f *Figure, label string) Series {
	t.Helper()
	for _, s := range f.Series {
		if s.Label == label {
			return s
		}
	}
	t.Fatalf("series %q not found in %s (have %v)", label, f.ID, seriesLabels(f))
	return Series{}
}

func seriesLabels(f *Figure) []string {
	out := make([]string, len(f.Series))
	for i, s := range f.Series {
		out[i] = s.Label
	}
	return out
}

func meanY(s Series) float64 {
	if len(s.Points) == 0 {
		return 0
	}
	var sum float64
	for _, p := range s.Points {
		sum += p.Y
	}
	return sum / float64(len(s.Points))
}

func TestFig4aShape(t *testing.T) {
	fig, err := Fig4a(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	chernoff := findSeries(t, fig, "Nongrouping-Chernoff-0.9")
	// The paper's headline: the Chernoff non-grouping ε-PPI achieves
	// near-optimal success ratio at every frequency.
	for _, p := range chernoff.Points {
		if p.Y < 0.9 {
			t.Errorf("Chernoff success ratio %v at freq %v, want >= 0.9", p.Y, p.X)
		}
	}
	// Grouping PPIs are unstable: at least one configuration misses badly
	// somewhere.
	worstGrouping := 1.0
	for _, s := range fig.Series {
		if !strings.HasPrefix(s.Label, "Grouping-") {
			continue
		}
		for _, p := range s.Points {
			if p.Y < worstGrouping {
				worstGrouping = p.Y
			}
		}
	}
	if worstGrouping > 0.5 {
		t.Errorf("grouping PPIs never fell below 0.5 (worst %v); expected instability", worstGrouping)
	}
}

func TestFig4bShape(t *testing.T) {
	fig, err := Fig4b(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	chernoff := findSeries(t, fig, "Nongrouping-Chernoff-0.9")
	for _, p := range chernoff.Points {
		if p.Y < 0.9 {
			t.Errorf("Chernoff success ratio %v at ε=%v, want >= 0.9", p.Y, p.X)
		}
	}
	// Grouping success degrades as ε grows (the paper's "quickly degrades
	// to 0"): the last ε point should be worse than the first for at least
	// one grouping configuration.
	degraded := false
	for _, s := range fig.Series {
		if !strings.HasPrefix(s.Label, "Grouping-") || len(s.Points) < 2 {
			continue
		}
		if s.Points[len(s.Points)-1].Y < s.Points[0].Y {
			degraded = true
		}
	}
	if !degraded {
		t.Error("no grouping series degraded with growing ε")
	}
}

func TestFig5aShape(t *testing.T) {
	fig, err := Fig5a(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	chernoff := findSeries(t, fig, "chernoff")
	basic := findSeries(t, fig, "basic")
	for _, p := range chernoff.Points {
		if p.Y < 0.85 {
			t.Errorf("chernoff pp=%v at freq %v, want >= 0.85 (γ=0.9)", p.Y, p.X)
		}
	}
	// Basic policy hovers around 0.5 on average.
	if m := meanY(basic); m < 0.2 || m > 0.8 {
		t.Errorf("basic policy mean pp=%v, want ≈ 0.5", m)
	}
	if meanY(chernoff) <= meanY(basic) {
		t.Error("chernoff did not beat basic")
	}
}

func TestFig5bShape(t *testing.T) {
	fig, err := Fig5b(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	chernoff := findSeries(t, fig, "chernoff")
	incexp := findSeries(t, fig, "inc-exp")
	for _, p := range chernoff.Points {
		if p.Y < 0.85 {
			t.Errorf("chernoff pp=%v at m=%v, want >= 0.85", p.Y, p.X)
		}
	}
	// Inc-exp is unsatisfactory at few providers (the paper's observation):
	// its worst point is clearly below the Chernoff floor.
	worst := 1.0
	for _, p := range incexp.Points {
		if p.Y < worst {
			worst = p.Y
		}
	}
	if worst > 0.85 {
		t.Errorf("inc-exp never under-performed (worst %v); expected weakness at small m", worst)
	}
}

func TestFig6aShape(t *testing.T) {
	fig, err := Fig6a(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	ePPI := findSeries(t, fig, "e-PPI")
	pure := findSeries(t, fig, "Pure-MPC")
	if len(ePPI.Points) != len(pure.Points) || len(ePPI.Points) == 0 {
		t.Fatal("series shape mismatch")
	}
	// At the largest party count the pure approach must be slower.
	last := len(pure.Points) - 1
	if pure.Points[last].Y <= ePPI.Points[last].Y {
		t.Errorf("pure MPC (%vms) not slower than e-PPI (%vms) at %v parties",
			pure.Points[last].Y, ePPI.Points[last].Y, pure.Points[last].X)
	}
}

func TestFig6bShape(t *testing.T) {
	fig, err := Fig6b(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	ePPI := findSeries(t, fig, "e-PPI")
	pure := findSeries(t, fig, "Pure-MPC")
	// Pure circuit grows with parties; e-PPI stays near-flat.
	pFirst, pLast := pure.Points[0].Y, pure.Points[len(pure.Points)-1].Y
	eFirst, eLast := ePPI.Points[0].Y, ePPI.Points[len(ePPI.Points)-1].Y
	if pLast <= pFirst {
		t.Errorf("pure circuit did not grow: %v -> %v", pFirst, pLast)
	}
	if eLast > eFirst*2 {
		t.Errorf("e-PPI circuit grew too fast: %v -> %v", eFirst, eLast)
	}
	if pLast <= eLast {
		t.Errorf("pure (%v gates) not larger than e-PPI (%v gates)", pLast, eLast)
	}
}

func TestFig6cShape(t *testing.T) {
	fig, err := Fig6c(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	ePPI := findSeries(t, fig, "e-PPI")
	pure := findSeries(t, fig, "Pure-MPC")
	last := len(pure.Points) - 1
	// Identity scaling: pure MPC grows faster and ends slower.
	if pure.Points[last].Y <= ePPI.Points[last].Y {
		t.Errorf("pure MPC (%vms) not slower than e-PPI (%vms) at %v identities",
			pure.Points[last].Y, ePPI.Points[last].Y, pure.Points[last].X)
	}
}

func TestFig6aModelledShape(t *testing.T) {
	fig, err := Fig6aModelled(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	ePPI := findSeries(t, fig, "e-PPI")
	pure := findSeries(t, fig, "Pure-MPC")
	last := len(pure.Points) - 1
	if pure.Points[last].Y <= ePPI.Points[last].Y {
		t.Error("modelled pure MPC not slower at scale")
	}
	// Super-linear growth of the pure curve: ratio of last/first exceeds
	// the party ratio.
	partyRatio := pure.Points[last].X / pure.Points[0].X
	timeRatio := pure.Points[last].Y / pure.Points[0].Y
	if timeRatio <= partyRatio {
		t.Errorf("modelled pure MPC growth %v not super-linear in parties (%v)", timeRatio, partyRatio)
	}
}

func TestTable2Degrees(t *testing.T) {
	table, err := Table2(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(table.Rows))
	}
	byName := map[string][]string{}
	for _, row := range table.Rows {
		byName[row[0]] = row
	}
	// ε-PPI: ε-PRIVATE under both attacks.
	ep := byName["ε-PPI"]
	if ep == nil {
		t.Fatal("ε-PPI row missing")
	}
	if ep[2] != "ε-PRIVATE" {
		t.Errorf("ε-PPI primary degree = %q", ep[2])
	}
	if ep[4] != "ε-PRIVATE" {
		t.Errorf("ε-PPI common degree = %q", ep[4])
	}
	// SS-PPI: the leak makes the common-identity attack certain.
	ss := byName["SS-PPI"]
	if ss == nil {
		t.Fatal("SS-PPI row missing")
	}
	if ss[4] != "NO PROTECT" {
		t.Errorf("SS-PPI common degree = %q", ss[4])
	}
	// Grouping PPI: no quantitative guarantee under the primary attack.
	gr := byName["PPI (grouping)"]
	if gr == nil {
		t.Fatal("grouping row missing")
	}
	if gr[2] == "ε-PRIVATE" {
		t.Errorf("grouping primary degree = %q; expected a violated guarantee", gr[2])
	}
}

func TestSearchCostTable(t *testing.T) {
	table, err := SearchCost(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(table.Rows))
	}
	// ε-PPI overhead grows with ε.
	parse := func(row []string) float64 {
		var v float64
		if _, err := fmtSscan(row[3], &v); err != nil {
			t.Fatalf("bad overhead cell %q", row[3])
		}
		return v
	}
	if !(parse(table.Rows[0]) < parse(table.Rows[2])) {
		t.Errorf("ε-PPI overhead not increasing in ε: %v vs %v", parse(table.Rows[0]), parse(table.Rows[2]))
	}
	for _, row := range table.Rows {
		if parse(row) < 1 {
			t.Errorf("%s overhead %v < 1 (impossible: recall is 100%%)", row[0], parse(row))
		}
	}
}

func fmtSscan(s string, v *float64) (int, error) {
	return sscan(s, v)
}

func TestRenderCSV(t *testing.T) {
	fig := &Figure{
		ID: "f", XLabel: "x",
		Series: []Series{
			{Label: "a", Points: []Point{{1, 0.5}, {2, 0.25}}},
			{Label: "b", Points: []Point{{1, 1}}},
		},
	}
	var buf bytes.Buffer
	if err := fig.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "x,a,b\n1,0.5,1\n2,0.25,\n"
	if buf.String() != want {
		t.Fatalf("figure csv = %q, want %q", buf.String(), want)
	}
	table := &TableResult{Header: []string{"h1", "h2"}, Rows: [][]string{{"a", "b,c"}}}
	buf.Reset()
	if err := table.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "h1,h2\na,\"b,c\"\n" {
		t.Fatalf("table csv = %q", buf.String())
	}
}

func TestRendering(t *testing.T) {
	fig := &Figure{
		ID: "figX", Title: "demo", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Label: "a", Points: []Point{{1, 0.5}, {2, 0.25}}},
			{Label: "b", Points: []Point{{1, 1}}},
		},
	}
	var buf bytes.Buffer
	fig.Render(&buf)
	out := buf.String()
	for _, want := range []string{"figX", "x", "a", "b", "0.5", "0.25", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure output missing %q:\n%s", want, out)
		}
	}
	table := &TableResult{ID: "t", Title: "demo", Header: []string{"col1", "col2"}, Rows: [][]string{{"a", "b"}}}
	buf.Reset()
	table.Render(&buf)
	if !strings.Contains(buf.String(), "col1") || !strings.Contains(buf.String(), "a") {
		t.Errorf("table output wrong:\n%s", buf.String())
	}
}

// TestRenderAlignsRunes: a cell holding ξ, λ or ≈ (two or three bytes
// each in UTF-8) is padded by its width in runes, so the next column of
// its row starts where the header's does.
func TestRenderAlignsRunes(t *testing.T) {
	table := &TableResult{
		ID: "t", Title: "runes",
		Header: []string{"setting", "cost"},
		Rows: [][]string{
			{"mixing on (ξ=0.8)", "26.1"},
			{"mixing off (λ≈0)", "5.0"},
			{"plain", "1"},
		},
	}
	var buf bytes.Buffer
	table.Render(&buf)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("rendered %d lines, want 6:\n%s", len(lines), buf.String())
	}
	column := func(line, cell string) int {
		i := strings.LastIndex(line, cell)
		if i < 0 {
			t.Fatalf("line %q lacks %q", line, cell)
		}
		return utf8.RuneCountInString(line[:i])
	}
	want := column(lines[1], "cost")
	for k, cell := range []string{"26.1", "5.0", "1"} {
		if got := column(lines[3+k], cell); got != want {
			t.Errorf("row %q: second column at rune %d, header's at %d\n%s", lines[3+k], got, want, buf.String())
		}
	}
}
