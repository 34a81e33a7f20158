package index

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/metrics"
)

// TestQueryBatchMatchesQuery pins the batch path to the single path: for
// every owner, the batch row must carry exactly what Query returns —
// including the in-band miss where Query errors with ErrUnknownOwner.
func TestQueryBatchMatchesQuery(t *testing.T) {
	s := sampleServer(t)
	owners := []string{"alice", "mallory", "carol", "bob", "alice", ""}
	items := s.QueryBatch(context.Background(), owners)
	if len(items) != len(owners) {
		t.Fatalf("items = %d, want %d", len(items), len(owners))
	}
	for i, owner := range owners {
		it := items[i]
		if it.Owner != owner {
			t.Fatalf("item %d echoes %q, want %q", i, it.Owner, owner)
		}
		single, err := s.Query(owner)
		if errors.Is(err, ErrUnknownOwner) {
			if it.Found || it.Providers != nil {
				t.Fatalf("item %d (%q) = %+v, want in-band miss with nil providers", i, owner, it)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if !it.Found {
			t.Fatalf("item %d (%q): single found, batch missed", i, owner)
		}
		if it.Providers == nil {
			t.Fatalf("item %d (%q): found row with nil providers", i, owner)
		}
		if fmt.Sprint(it.Providers) != fmt.Sprint(single) {
			t.Fatalf("item %d (%q): batch %v, single %v", i, owner, it.Providers, single)
		}
	}
}

func TestQueryBatchEmpty(t *testing.T) {
	s := sampleServer(t)
	items := s.QueryBatch(context.Background(), nil)
	if len(items) != 0 {
		t.Fatalf("items = %v, want empty", items)
	}
}

// TestQueryBatchLoadCounters checks the amortized counter fold: a batch
// must account for its hits exactly like the same lookups done one by one.
func TestQueryBatchLoadCounters(t *testing.T) {
	s := sampleServer(t)
	reg := metrics.NewRegistry()
	s.Instrument(reg)
	s.QueryBatch(context.Background(), []string{"alice", "mallory", "carol"})
	// alice (fanout 2) and carol (fanout 0) hit; mallory does not count.
	q, avg := loadCounters(reg)
	if q != 2 {
		t.Fatalf("batch added %d queries, want 2", q)
	}
	if avg != 1 { // (2+0)/2
		t.Fatalf("avg fanout = %v, want 1", avg)
	}
	if got := reg.Counter("eppi_index_unknown_owner_total", "").Value(); got != 1 {
		t.Fatalf("unknown owners = %d, want 1", got)
	}
}
