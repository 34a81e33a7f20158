// Package index implements the published ε-PPI: the data structure hosted
// by the untrusted third-party locator service. It stores only the obscured
// matrix M' — never the private matrix M or the β values — and serves the
// QueryPPI operation: "which providers may hold records of owner t?".
//
// QueryPPI reads one column of M' (providers × owners), so the server
// keeps the transpose: one row of ⌈m/64⌉ contiguous words per owner, built
// once by bitmat.Transposed when the index is handed over and stored in
// that orientation in snapshots. A lookup is then a popcount and a
// trailing-zeros scan of a few cache lines, whatever n is.
package index

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/bitmat"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// ErrUnknownOwner reports a query for an owner absent from the index.
var ErrUnknownOwner = errors.New("index: unknown owner identity")

// Server is the PPI server state. It is safe for concurrent queries.
type Server struct {
	// owners is M' transposed, owners × providers: row j is the provider
	// set of names[j]. It is the only copy of the matrix the server holds.
	owners *bitmat.Matrix
	names  []string
	// rows finds a name's row in names.
	rows nameTable

	// shard/shards identify this server as one column shard of a larger
	// index (0 ≤ shard < shards); shards == 0 means unsharded.
	shard  int
	shards int

	// epoch is the publication epoch this index belongs to (0 for an
	// index that was never re-published). It is immutable once serving
	// starts: a new epoch arrives as a whole new Server, swapped in
	// RCU-style by the serving layer, never mutated in place.
	epoch uint64

	// inst holds the load counters once Instrument is called: they live
	// in the registry only. nil before that, and the query path then
	// counts nothing.
	inst atomic.Pointer[instruments]
}

// instruments are the server's registry-backed load counters.
type instruments struct {
	queries *metrics.Counter
	unknown *metrics.Counter
	fanout  *metrics.Histogram
}

// FanoutBuckets are the histogram bucket bounds for per-query fan-out
// (result-list length): powers of two up to 4096 providers.
var FanoutBuckets = metrics.ExponentialBuckets(1, 2, 13)

// Instrument counts queries into reg:
//
//	eppi_index_queries_total        QueryPPI calls served
//	eppi_index_unknown_owner_total  queries for absent owners
//	eppi_index_query_fanout         per-query result-list length (search cost)
//
// Fan-out is the paper's per-query search cost: the number of AuthSearch
// probes a searcher pays, noise included.
func (s *Server) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	s.inst.Store(&instruments{
		queries: reg.Counter("eppi_index_queries_total", "QueryPPI calls served."),
		unknown: reg.Counter("eppi_index_unknown_owner_total", "Queries for owner identities absent from the index."),
		fanout:  reg.Histogram("eppi_index_query_fanout", "Per-query result-list length (the paper's search cost).", FanoutBuckets),
	})
}

// NewServer builds a server over the published matrix. names[j] labels
// identity column j; duplicate names are rejected.
func NewServer(published *bitmat.Matrix, names []string) (*Server, error) {
	if published == nil {
		return nil, errors.New("index: nil matrix")
	}
	if len(names) != published.Cols() {
		return nil, fmt.Errorf("index: %d names for %d identity columns", len(names), published.Cols())
	}
	// Defensive copy: the server must not observe later caller mutations.
	// The transpose is that copy.
	return Adopt(published.Transposed(), append([]string(nil), names...))
}

// Adopt builds a server around an owner-major matrix (owners ×
// providers: row j is the provider set of names[j]) and its row labels,
// taking ownership of both (no copy): the caller must hold no other
// reference. Snapshot loading and the shard partitioner feed it
// matrices they just built. Duplicate names are rejected.
func Adopt(owners *bitmat.Matrix, names []string) (*Server, error) {
	if len(names) != owners.Rows() {
		return nil, fmt.Errorf("index: %d names for %d owner rows", len(names), owners.Rows())
	}
	rows, err := newNameTable(names)
	if err != nil {
		return nil, err
	}
	return &Server{owners: owners, names: names, rows: rows}, nil
}

// SetShard marks the server as column shard id of a set of `of` shards.
// Shard identity travels with snapshots (WriteTo/Read) so a node serving
// a shard file knows — and reports — which slice of the index it holds.
func (s *Server) SetShard(id, of int) error {
	if of < 1 || id < 0 || id >= of {
		return fmt.Errorf("index: bad shard %d/%d", id, of)
	}
	s.shard, s.shards = id, of
	return nil
}

// ShardInfo returns the server's shard identity. sharded is false (and
// id/of are 0) for a full, unsharded index.
func (s *Server) ShardInfo() (id, of int, sharded bool) {
	return s.shard, s.shards, s.shards > 0
}

// SetEpoch stamps the publication epoch the index belongs to. Epoch
// identity travels with snapshots (WriteTo/Read) and is reported by the
// serving tier so a fleet mid-re-publication can tell which index
// version each node answers from.
func (s *Server) SetEpoch(e uint64) { s.epoch = e }

// Epoch returns the publication epoch (0: never re-published).
func (s *Server) Epoch() uint64 { return s.epoch }

// PublishedMatrix returns M' (providers × owners) as a fresh matrix,
// transposed back from the serving layout; not for hot paths. The matrix
// is public by construction — it is exactly what the untrusted host
// serves — so exposing it leaks nothing.
func (s *Server) PublishedMatrix() *bitmat.Matrix {
	return s.owners.Transposed()
}

// Providers returns the provider count m.
func (s *Server) Providers() int { return s.owners.Cols() }

// Owners returns the identity count n.
func (s *Server) Owners() int { return s.owners.Rows() }

// Names returns the identity labels in column order.
func (s *Server) Names() []string {
	return append([]string(nil), s.names...)
}

// Query implements QueryPPI(t): the list of provider ids that may hold
// records of the owner. The list includes the noise providers that give the
// index its privacy.
func (s *Server) Query(owner string) ([]int, error) {
	return s.QueryCtx(context.Background(), owner)
}

// QueryCtx is Query with an explicit context. When ctx carries a trace
// span, the lookup records an "index.query" child span annotated with the
// outcome (fan-out, or unknown_owner). With no span in ctx the tracing
// path is a no-op and allocates nothing.
func (s *Server) QueryCtx(ctx context.Context, owner string) ([]int, error) {
	_, sp := trace.StartChild(ctx, "index.query")
	j, ok := s.rows.find(s.names, owner)
	if !ok {
		if in := s.inst.Load(); in != nil {
			in.unknown.Inc()
		}
		sp.Set("outcome", "unknown_owner")
		sp.End()
		return nil, fmt.Errorf("%w: %q", ErrUnknownOwner, owner)
	}
	result := s.QueryColumn(j)
	sp.SetInt("fanout", len(result))
	sp.End()
	return result, nil
}

// BatchItem is one per-owner outcome of a QueryBatch. A miss is in-band
// (Found false) instead of an error: one unknown owner must not fail the
// other k-1 resolutions travelling in the same batch.
type BatchItem struct {
	// Owner is the queried identity, echoed back so batch responses are
	// self-describing even after reordering or partial merges.
	Owner string `json:"owner"`
	// Found reports whether the owner is indexed.
	Found bool `json:"found"`
	// Providers is the QueryPPI result, noise included; empty (never nil)
	// when Found, nil when not.
	Providers []int `json:"providers"`
}

// QueryBatch resolves many owners against this one snapshot: every item
// of the returned slice (position-matched to owners) is answered by the
// same published matrix, so a batch can never straddle an epoch swap —
// the single-snapshot-per-batch guarantee the serving tier builds on.
// Each item answers exactly like QueryCtx would for that owner, misses
// reported in-band. When ctx carries a trace span, one "index.query_batch"
// child span records the batch size and hit count (not one span per
// owner — a 10k-owner batch must not flood the trace ring).
func (s *Server) QueryBatch(ctx context.Context, owners []string) []BatchItem {
	_, sp := trace.StartChild(ctx, "index.query_batch")
	out := make([]BatchItem, len(owners))
	found := 0
	in := s.inst.Load()
	for i, owner := range owners {
		out[i].Owner = owner
		j, ok := s.rows.find(s.names, owner)
		if !ok {
			if in != nil {
				in.unknown.Inc()
			}
			continue
		}
		providers := s.owners.RowOnes(j)
		if providers == nil {
			providers = []int{}
		}
		out[i].Found = true
		out[i].Providers = providers
		found++
		if in != nil {
			in.fanout.Observe(float64(len(providers)))
		}
	}
	// Fold the query counter in one add instead of k: the batch path
	// exists to amortize per-lookup overhead.
	if in != nil {
		in.queries.Add(uint64(found))
	}
	sp.SetInt("batch_size", len(owners))
	sp.SetInt("found", found)
	sp.End()
	return out
}

// QueryColumn is Query by column number.
func (s *Server) QueryColumn(j int) []int {
	result := s.owners.RowOnes(j)
	if in := s.inst.Load(); in != nil {
		in.queries.Inc()
		in.fanout.Observe(float64(len(result)))
	}
	return result
}

// SearchCost returns the total published positives (Σ_j |column j|), the
// network-wide query fan-out an exhaustive searcher would pay; experiments
// use it as the search-overhead metric.
func (s *Server) SearchCost() int {
	return s.owners.Count()
}
