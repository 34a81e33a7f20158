package index

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/metrics"
)

func sampleServer(t *testing.T) *Server {
	t.Helper()
	m := bitmat.MustNew(4, 3)
	m.Set(0, 0, true)
	m.Set(2, 0, true)
	m.Set(1, 1, true)
	s, err := NewServer(m, []string{"alice", "bob", "carol"})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewServerValidation(t *testing.T) {
	m := bitmat.MustNew(2, 2)
	if _, err := NewServer(nil, nil); err == nil {
		t.Error("nil matrix accepted")
	}
	if _, err := NewServer(m, []string{"a"}); err == nil {
		t.Error("name count mismatch accepted")
	}
	if _, err := NewServer(m, []string{"a", "a"}); err == nil {
		t.Error("duplicate names accepted")
	}
}

func TestQuery(t *testing.T) {
	s := sampleServer(t)
	got, err := s.Query("alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Query(alice) = %v, want [0 2]", got)
	}
	got, err = s.Query("carol")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("Query(carol) = %v, want empty", got)
	}
	if _, err := s.Query("mallory"); !errors.Is(err, ErrUnknownOwner) {
		t.Fatalf("unknown owner error = %v", err)
	}
}

func TestServerIsolatedFromCallerMatrix(t *testing.T) {
	m := bitmat.MustNew(2, 1)
	m.Set(0, 0, true)
	s, err := NewServer(m, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	m.Set(1, 0, true) // caller mutates after handoff
	got, err := s.Query("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("server observed caller mutation: %v", got)
	}
}

// loadCounters reads the server's load counters from the registry it
// reports into: queries served and the mean fan-out per query.
func loadCounters(reg *metrics.Registry) (queries uint64, avgFanout float64) {
	queries = reg.Counter("eppi_index_queries_total", "").Value()
	h := reg.Histogram("eppi_index_query_fanout", "", nil)
	if h.Count() > 0 {
		avgFanout = h.Sum() / float64(h.Count())
	}
	return queries, avgFanout
}

func TestStats(t *testing.T) {
	s := sampleServer(t)
	reg := metrics.NewRegistry()
	s.Instrument(reg)
	if q, avg := loadCounters(reg); q != 0 || avg != 0 {
		t.Fatalf("fresh counters = %d queries, avg fanout %v", q, avg)
	}
	if _, err := s.Query("alice"); err != nil { // fanout 2
		t.Fatal(err)
	}
	if _, err := s.Query("bob"); err != nil { // fanout 1
		t.Fatal(err)
	}
	if q, avg := loadCounters(reg); q != 2 || avg != 1.5 {
		t.Fatalf("counters = %d queries, avg fanout %v, want 2 queries avg 1.5", q, avg)
	}
	if s.SearchCost() != 3 {
		t.Fatalf("SearchCost = %d, want 3", s.SearchCost())
	}
}

func TestAccessors(t *testing.T) {
	s := sampleServer(t)
	if s.Providers() != 4 || s.Owners() != 3 {
		t.Fatalf("dims = %d x %d", s.Providers(), s.Owners())
	}
	names := s.Names()
	if len(names) != 3 || names[0] != "alice" {
		t.Fatalf("Names = %v", names)
	}
	names[0] = "evil"
	if s.Names()[0] != "alice" {
		t.Fatal("Names exposed internal slice")
	}
}

func TestConcurrentQueries(t *testing.T) {
	s := sampleServer(t)
	reg := metrics.NewRegistry()
	s.Instrument(reg)
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				if _, err := s.Query("alice"); err != nil {
					panic(err)
				}
			}
		}()
	}
	wg.Wait()
	if q, _ := loadCounters(reg); q != 2000 {
		t.Fatalf("Queries = %d, want 2000", q)
	}
}

func TestInstrument(t *testing.T) {
	s := sampleServer(t)
	reg := metrics.NewRegistry()
	s.Instrument(reg)
	if _, err := s.Query("alice"); err != nil { // fanout 2
		t.Fatal(err)
	}
	if _, err := s.Query("bob"); err != nil { // fanout 1
		t.Fatal(err)
	}
	if _, err := s.Query("mallory"); err == nil {
		t.Fatal("unknown owner accepted")
	}
	if got := reg.Counter("eppi_index_queries_total", "").Value(); got != 2 {
		t.Fatalf("queries_total = %d, want 2", got)
	}
	if got := reg.Counter("eppi_index_unknown_owner_total", "").Value(); got != 1 {
		t.Fatalf("unknown_owner_total = %d, want 1", got)
	}
	h := reg.Histogram("eppi_index_query_fanout", "", nil)
	if h.Count() != 2 || h.Sum() != 3 {
		t.Fatalf("fanout histogram count=%d sum=%v, want 2/3", h.Count(), h.Sum())
	}
}

// BenchmarkQueryColumn measures the hot QueryPPI path; without a
// registry it counts nothing.
func BenchmarkQueryColumn(b *testing.B) {
	s := benchServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.QueryColumn(i % s.Owners())
	}
}

func BenchmarkQueryColumnParallel(b *testing.B) {
	s := benchServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		j := 0
		for pb.Next() {
			s.QueryColumn(j % s.Owners())
			j++
		}
	})
}

// BenchmarkQueryColumnInstrumented shows the marginal cost of a live
// metrics registry on the hot path.
func BenchmarkQueryColumnInstrumented(b *testing.B) {
	s := benchServer(b)
	s.Instrument(metrics.NewRegistry())
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		j := 0
		for pb.Next() {
			s.QueryColumn(j % s.Owners())
			j++
		}
	})
}

func benchServer(b *testing.B) *Server {
	b.Helper()
	const m, n = 256, 64
	mat := bitmat.MustNew(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if (i+j)%7 == 0 {
				mat.Set(i, j, true)
			}
		}
	}
	names := make([]string, n)
	for j := range names {
		names[j] = fmt.Sprintf("owner-%03d", j)
	}
	s, err := NewServer(mat, names)
	if err != nil {
		b.Fatal(err)
	}
	return s
}
