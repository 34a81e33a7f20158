package audit

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bitmat"
	"repro/internal/index"
	"repro/internal/metrics"
)

func TestSinkRoundTrip(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	s, err := Open(dir, Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	want := []Entry{
		{Route: "query", Owner: "owner://a", Shard: 0, Epoch: 3, Trace: "abc", Results: 4, Status: 200},
		{Route: "query", Owner: "owner://b", Shard: 1, Epoch: 3, Results: -1, Status: 404},
		{Route: "search", Shard: -1, Epoch: 3, Results: 17, Status: 200},
	}
	for _, e := range want {
		s.Record(e)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, st, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Corrupt != 0 || st.Lines != len(want) {
		t.Fatalf("stats = %+v", st)
	}
	for i, e := range got {
		if e.Time == 0 {
			t.Errorf("entry %d: time not stamped", i)
		}
		e.Time = 0
		if e != want[i] {
			t.Errorf("entry %d = %+v, want %+v", i, e, want[i])
		}
	}
	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "eppi_audit_records_total 3") {
		t.Errorf("records counter missing:\n%s", sb.String())
	}
}

func TestSinkRotationBySize(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxFileBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		s.Record(Entry{Route: "query", Owner: "owner://long-enough-name.example.org", Results: i})
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := Files(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 2 {
		t.Fatalf("no rotation happened: %v", files)
	}
	got, st, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n || st.Corrupt != 0 {
		t.Fatalf("read %d entries (stats %+v), want %d", len(got), st, n)
	}
}

func TestSinkNewRunStartsFreshFile(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Record(Entry{Route: "query", Owner: "a"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2.Record(Entry{Route: "query", Owner: "b"})
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := Files(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("files = %v, want 2 (one per run)", files)
	}
	if filepath.Base(files[1]) != FileName(2) {
		t.Errorf("second run's file = %s, want %s", files[1], FileName(2))
	}
}

// TestSinkRingOverflowDrops drives Record against a sink whose writer
// goroutine never runs, so the ring genuinely fills.
func TestSinkRingOverflowDrops(t *testing.T) {
	reg := metrics.NewRegistry()
	s := &Sink{
		ch:      make(chan Entry, 2),
		dropped: reg.Counter("eppi_audit_dropped_total", ""),
	}
	for i := 0; i < 5; i++ {
		s.Record(Entry{Route: "query"})
	}
	if got := s.dropped.Value(); got != 3 {
		t.Errorf("dropped = %d, want 3", got)
	}
}

func TestScanSkipsCorruptLines(t *testing.T) {
	good, err := marshalEntry(Entry{Route: "query", Owner: "a", Results: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.Write(frame(good))
	sb.WriteString("00000000 {\"route\":\"query\"}\n") // wrong CRC
	sb.WriteString("not an audit line at all\n")
	sb.WriteString("deadbeef\n") // no separator
	sb.Write(frame(good))
	var n int
	st, err := Scan(strings.NewReader(sb.String()), func(Entry) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.Lines != 2 || st.Corrupt != 3 || n != 2 {
		t.Errorf("stats = %+v, delivered %d; want 2 intact / 3 corrupt", st, n)
	}
}

func TestScanTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Record(Entry{Route: "query", Owner: "a"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	files, _ := Files(dir)
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: append the first half of another line.
	torn := append(raw, raw[:len(raw)/2]...)
	if err := os.WriteFile(files[0], torn, 0o644); err != nil {
		t.Fatal(err)
	}
	_, st, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Lines != 1 || st.Corrupt != 1 {
		t.Errorf("stats = %+v, want 1 intact / 1 corrupt", st)
	}
}

func TestNilSinkIsNoOp(t *testing.T) {
	var s *Sink
	s.Record(Entry{Route: "query"})
	if err := s.Close(); err != nil {
		t.Error(err)
	}
	if s.Dir() != "" {
		t.Error("nil sink has a dir")
	}
}

func TestHotTrackerFlagsAndDecays(t *testing.T) {
	reg := metrics.NewRegistry()
	h := NewHotTracker(time.Second, 5, reg, nil)
	base := time.Unix(1000, 0)
	for i := 0; i < 4; i++ {
		if h.observeAt("owner://victim", base) {
			t.Fatalf("hot after %d observations", i+1)
		}
	}
	if !h.observeAt("owner://victim", base) {
		t.Fatal("not hot at threshold")
	}
	if got := h.HotOwners(); len(got) != 1 || got[0] != "owner://victim" {
		t.Errorf("HotOwners = %v", got)
	}
	if g := reg.Gauge("eppi_audit_hot_owners", "").Value(); g != 1 {
		t.Errorf("gauge = %v, want 1", g)
	}
	// One window later the count halves (5→2): no longer hot.
	if h.observeAt("owner://other", base.Add(1100*time.Millisecond)) {
		t.Error("cold owner reported hot")
	}
	if got := h.HotOwners(); len(got) != 0 {
		t.Errorf("HotOwners after decay = %v", got)
	}
	if g := reg.Gauge("eppi_audit_hot_owners", "").Value(); g != 0 {
		t.Errorf("gauge after decay = %v, want 0", g)
	}
	// A long idle gap fully drains the map instead of replaying windows.
	h.observeAt("owner://other", base.Add(time.Hour))
	if len(h.counts) != 1 {
		t.Errorf("counts after idle gap = %v", h.counts)
	}
}

func TestHotTrackerBoundsOwners(t *testing.T) {
	h := NewHotTracker(time.Second, 2, nil, nil)
	h.maxOwners = 3
	base := time.Unix(1000, 0)
	h.observeAt("a", base)
	h.observeAt("b", base)
	h.observeAt("c", base)
	h.observeAt("d", base) // over capacity: untracked
	if len(h.counts) != 3 {
		t.Errorf("tracked %d owners, want 3", len(h.counts))
	}
	if h.observeAt("d", base) {
		t.Error("untracked owner reported hot")
	}
}

func TestHotTrackerDisabled(t *testing.T) {
	if NewHotTracker(0, 5, nil, nil) != nil {
		t.Error("zero window should disable")
	}
	if NewHotTracker(time.Second, 0, nil, nil) != nil {
		t.Error("zero threshold should disable")
	}
	var h *HotTracker
	if h.Observe("a") {
		t.Error("nil tracker flagged an owner")
	}
	if h.HotOwners() != nil {
		t.Error("nil tracker has hot owners")
	}
}

// queryHotPathServer builds a tiny index whose benchmark owner has an
// empty column: the query machinery runs end to end (name resolution,
// column scan, stats) without the result-slice allocation a non-empty
// answer necessarily pays, isolating the audit delta.
func queryHotPathServer(tb testing.TB) *index.Server {
	tb.Helper()
	m := bitmat.MustNew(8, 2)
	for r := 0; r < 8; r++ {
		m.Set(r, 1, true)
	}
	srv, err := index.NewServer(m, []string{"owner://empty", "owner://full"})
	if err != nil {
		tb.Fatal(err)
	}
	return srv
}

// TestQueryAuditDisabledZeroAlloc is the test-form guarantee behind
// BenchmarkQueryAuditDisabled: with auditing off (nil sink), a served
// query allocates nothing on top of the query itself.
func TestQueryAuditDisabledZeroAlloc(t *testing.T) {
	srv := queryHotPathServer(t)
	var sink *Sink
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		res, err := srv.QueryCtx(ctx, "owner://empty")
		if err != nil {
			t.Fatal(err)
		}
		sink.Record(Entry{Route: "query", Owner: "owner://empty", Shard: -1, Epoch: 1, Results: len(res), Status: 200})
	})
	if allocs != 0 {
		t.Errorf("disabled-audit query path allocates %v/op, want 0", allocs)
	}
}

// BenchmarkQueryAuditDisabled measures the query hot path with
// auditing disabled — the default production configuration. Guarded at
// 0 allocs/op by TestQueryAuditDisabledZeroAlloc.
func BenchmarkQueryAuditDisabled(b *testing.B) {
	srv := queryHotPathServer(b)
	var sink *Sink
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := srv.QueryCtx(ctx, "owner://empty")
		if err != nil {
			b.Fatal(err)
		}
		sink.Record(Entry{Route: "query", Owner: "owner://empty", Shard: -1, Epoch: 1, Results: len(res), Status: 200})
	}
}
