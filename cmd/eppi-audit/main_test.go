package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/bitmat"
	"repro/internal/epoch"
	"repro/internal/privacy"
)

// buildStore publishes two epochs with privacy reports over a hand-built
// 4-provider, 4-identity scenario (mirroring internal/privacy's hand
// case: "b" violates Equation 1 in epoch 1 and is repaired in epoch 2;
// "c" is a high-privacy true common).
func buildStore(t *testing.T) string {
	t.Helper()
	truth := bitmat.MustNew(4, 4)
	truth.Set(0, 0, true)
	truth.Set(0, 1, true)
	truth.Set(1, 1, true)
	for r := 0; r < 4; r++ {
		truth.Set(r, 2, true)
	}
	truth.Set(2, 3, true)
	pub := truth.Clone()
	pub.Set(3, 0, true)
	for r := 0; r < 4; r++ {
		pub.Set(r, 2, true)
		pub.Set(r, 3, true)
	}
	in := privacy.Input{
		Truth: truth, Published: pub,
		Names:      []string{"a", "b", "c", "d"},
		Eps:        []float64{0.4, 0.5, 0.95, 0.05},
		Thresholds: []uint64{5, 5, 3, 5},
		Hidden:     []bool{false, false, true, true},
		Policy:     "chernoff", Gamma: 0.9,
	}
	rep1, det1, err := privacy.Compute(in)
	if err != nil {
		t.Fatal(err)
	}
	// Epoch 2 repairs the violation: two false positives lift b's
	// achieved FP rate to its ε.
	pub2 := pub.Clone()
	pub2.Set(2, 1, true)
	pub2.Set(3, 1, true)
	in2 := in
	in2.Published = pub2
	rep2, det2, err := privacy.Compute(in2)
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	p := epoch.Publisher{Root: root}
	if _, err := p.PublishWithReport(pub, in.Names, 1, rep1, det1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.PublishWithReport(pub2, in.Names, 1, rep2, det2); err != nil {
		t.Fatal(err)
	}
	return root
}

func buildLogs(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	s, err := audit.Open(dir, audit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		s.Record(audit.Entry{Route: "query", Owner: "c", Shard: 0, Epoch: 1, Results: 4, Status: 200})
	}
	s.Record(audit.Entry{Route: "query", Owner: "c", Shard: 0, Epoch: 2, Results: 4, Status: 200})
	s.Record(audit.Entry{Route: "query", Owner: "a", Shard: 0, Epoch: 2, Results: 2, Status: 200})
	s.Record(audit.Entry{Route: "query", Owner: "owner://ghost", Epoch: 2, Results: -1, Status: 404})
	s.Record(audit.Entry{Route: "search", Owner: "a", Epoch: 2, Results: 1, Status: 200})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestAnalyzeJoinsLogsWithReports(t *testing.T) {
	store := buildStore(t)
	logs := buildLogs(t)
	a, err := analyze(logs, store, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Entries != 7 || a.Corrupt != 0 {
		t.Fatalf("entries = %d, corrupt = %d", a.Entries, a.Corrupt)
	}
	if a.Routes["query"] != 6 || a.Routes["search"] != 1 {
		t.Errorf("routes = %v", a.Routes)
	}
	if len(a.Epochs) != 2 || a.Epochs[0].Entries != 3 || a.Epochs[1].Entries != 4 {
		t.Errorf("epoch mix = %+v", a.Epochs)
	}
	if len(a.TopOwners) != 3 {
		t.Fatalf("top owners = %+v", a.TopOwners)
	}
	c := a.TopOwners[0]
	if c.Owner != "c" || c.Queries != 4 || c.Bucket != "0.9-1.0" || !c.HighPrivacy {
		t.Errorf("top owner = %+v", c)
	}
	ghost := a.TopOwners[2]
	if ghost.Owner != "owner://ghost" || ghost.NotFound != 1 || ghost.Bucket != "" {
		t.Errorf("ghost owner = %+v", ghost)
	}
	if len(a.HighPrivacyHot) != 1 || a.HighPrivacyHot[0].Owner != "c" {
		t.Errorf("high-privacy hot = %+v", a.HighPrivacyHot)
	}
	if len(a.Reports) != 2 || a.Reports[0].ViolationCount != 1 || a.Reports[1].ViolationCount != 0 {
		t.Errorf("reports = %+v", a.Reports)
	}
	if len(a.Diffs) != 1 || a.Diffs[0].FromEpoch != 1 || a.Diffs[0].ToEpoch != 2 {
		t.Fatalf("diffs = %+v", a.Diffs)
	}
	if a.Diffs[0].Violations != [2]int{1, 0} {
		t.Errorf("diff violations = %v", a.Diffs[0].Violations)
	}
	if len(a.SkippedEpochs) != 0 {
		t.Errorf("skipped = %v", a.SkippedEpochs)
	}
}

// TestAnalyzeCountsBatchLookups: owners resolved through POST
// /v1/query/batch (audited as route "batch" by node and gateway) are
// looked up exactly like single queries and must weigh the same in the
// owner profile.
func TestAnalyzeCountsBatchLookups(t *testing.T) {
	store := buildStore(t)
	dir := t.TempDir()
	s, err := audit.Open(dir, audit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		s.Record(audit.Entry{Route: "batch", Owner: "c", Shard: 0, Epoch: 2, Results: 4, Status: 200})
	}
	s.Record(audit.Entry{Route: "batch", Owner: "owner://ghost", Epoch: 2, Results: -1, Status: 404})
	s.Record(audit.Entry{Route: "query", Owner: "a", Shard: 0, Epoch: 2, Results: 2, Status: 200})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := analyze(dir, store, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.TopOwners) != 3 {
		t.Fatalf("top owners = %+v, want c, a and the ghost", a.TopOwners)
	}
	if c := a.TopOwners[0]; c.Owner != "c" || c.Queries != 3 || !c.HighPrivacy {
		t.Errorf("top owner = %+v, want c with 3 batched lookups", c)
	}
	if ghost := a.TopOwners[2]; ghost.Owner != "owner://ghost" || ghost.NotFound != 1 {
		t.Errorf("ghost owner = %+v", ghost)
	}
	if len(a.HighPrivacyHot) != 1 || a.HighPrivacyHot[0].Owner != "c" {
		t.Errorf("high-privacy hot = %+v", a.HighPrivacyHot)
	}
}

func TestAnalyzeWithoutStore(t *testing.T) {
	logs := buildLogs(t)
	a, err := analyze(logs, "", 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.TopOwners) != 2 || a.TopOwners[0].Bucket != "" {
		t.Errorf("top owners = %+v", a.TopOwners)
	}
	if len(a.Reports) != 0 || len(a.HighPrivacyHot) != 0 {
		t.Errorf("reports appeared without a store: %+v", a)
	}
}

func TestAnalyzeFlagsReportlessEpochs(t *testing.T) {
	store := buildStore(t)
	logs := buildLogs(t)
	// A third epoch published without a report must surface as a gap,
	// not silently vanish from the analysis.
	pub := bitmat.MustNew(4, 4)
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			pub.Set(r, c, true)
		}
	}
	p := epoch.Publisher{Root: store}
	if _, err := p.Publish(pub, []string{"a", "b", "c", "d"}, 1); err != nil {
		t.Fatal(err)
	}
	a, err := analyze(logs, store, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.SkippedEpochs) != 1 || a.SkippedEpochs[0] != 3 {
		t.Errorf("skipped = %v", a.SkippedEpochs)
	}
	if len(a.Reports) != 2 {
		t.Errorf("reports = %+v", a.Reports)
	}
}

func TestRunJSONAndText(t *testing.T) {
	store := buildStore(t)
	logs := buildLogs(t)
	var buf bytes.Buffer
	if err := run([]string{"-logs", logs, "-epoch-dir", store, "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var a Analysis
	if err := json.Unmarshal(buf.Bytes(), &a); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, buf.String())
	}
	if a.Entries != 7 {
		t.Errorf("entries = %d", a.Entries)
	}
	buf.Reset()
	if err := run([]string{"-logs", logs, "-epoch-dir", store}, &buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"7 records", "high privacy", "epoch 1 → 2", "violations 1 → 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text output missing %q:\n%s", want, text)
		}
	}
}

// TestAnalyzeNegativeTop pins the clamp: a negative -top must yield an
// empty top list, not a slice-bounds panic.
func TestAnalyzeNegativeTop(t *testing.T) {
	logs := buildLogs(t)
	a, err := analyze(logs, "", -5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.TopOwners) != 0 {
		t.Errorf("top owners = %+v, want none", a.TopOwners)
	}
}

// TestAnalyzeDetaillessStore covers a store whose publisher withheld
// the operator detail (e.g. a host-facing store): reports still
// summarize and diff, but the ε-decile join degrades to unlabelled
// owners instead of failing.
func TestAnalyzeDetaillessStore(t *testing.T) {
	truth := bitmat.MustNew(2, 2)
	truth.Set(0, 0, true)
	pub := truth.Clone()
	pub.Set(1, 0, true)
	rep, _, err := privacy.Compute(privacy.Input{
		Truth: truth, Published: pub,
		Names: []string{"a", "b"}, Eps: []float64{0.4, 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	p := epoch.Publisher{Root: root}
	if _, err := p.PublishWithReport(pub, []string{"a", "b"}, 1, rep, nil); err != nil {
		t.Fatal(err)
	}
	a, err := analyze(buildLogs(t), root, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Reports) != 1 {
		t.Fatalf("reports = %+v", a.Reports)
	}
	for _, o := range a.TopOwners {
		if o.Bucket != "" || o.HighPrivacy {
			t.Errorf("owner joined without a detail document: %+v", o)
		}
	}
}

func TestRunRequiresLogs(t *testing.T) {
	if err := run(nil, &bytes.Buffer{}); err == nil {
		t.Error("run without -logs accepted")
	}
	if err := run([]string{"-logs", filepath.Join(t.TempDir(), "missing")}, &bytes.Buffer{}); err == nil {
		t.Error("missing log dir accepted")
	}
}
