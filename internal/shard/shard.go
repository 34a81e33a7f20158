// Package shard partitions a published ε-PPI into column shards so the
// index can be served by a fleet of nodes instead of one global server.
//
// The published matrix M' is m providers × n identities. Identity columns
// are the natural partition axis: a QueryPPI(t) touches exactly one
// column, so routing by owner identity sends every lookup to exactly one
// shard, and a shard node holds n/k of the index while still answering
// its queries bit-identically to the full server. Assignment is a stable
// hash of the owner name (FNV-1a 64), so any party — the gateway, a
// shard node, an offline partitioner — computes the same owner→shard map
// with no coordination and no lookup table.
//
// A shard *set* on disk is k snapshot files plus a checksummed manifest
// (see Manifest) binding them together: shard count, dimensions, and the
// CRC-32 of every member file, so a serving node can refuse to boot on a
// mixed or corrupted set.
package shard

import (
	"errors"
	"fmt"
	"hash/fnv"

	"repro/internal/bitmat"
	"repro/internal/index"
)

// For returns the shard (0 ≤ k < of) owning the identity under the
// stable FNV-1a hash. It panics on of < 1 (wiring error, not input).
func For(owner string, of int) int {
	if of < 1 {
		panic(fmt.Sprintf("shard: bad shard count %d", of))
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(owner))
	return int(h.Sum64() % uint64(of))
}

// Partition splits a published index into `of` column shards. Shard k
// receives the columns of every identity with For(name, of) == k, in the
// original column order; provider rows are complete in every shard, so
// shard-local QueryPPI answers are bit-identical to the full index.
// Shards with no identities are valid (small n, unlucky hash) — they
// serve an empty index that still reports all m providers.
//
// The split is one tiled transpose of M' straight into the shards'
// owner-major matrices (bitmat.SplitTransposed): no full index, name map
// or row copy is built on the way. Duplicate names are still refused —
// equal names hash to the same shard, whose server rejects them.
func Partition(published *bitmat.Matrix, names []string, of int) ([]*index.Server, error) {
	if of < 1 { // before paying for the transpose
		return nil, fmt.Errorf("shard: bad shard count %d", of)
	}
	if published == nil {
		return nil, errors.New("shard: nil matrix")
	}
	if len(names) != published.Cols() {
		return nil, fmt.Errorf("shard: %d names for %d identity columns", len(names), published.Cols())
	}
	to := make([]int, len(names))
	shardNames := make([][]string, of)
	for j, name := range names {
		k := For(name, of)
		to[j] = k
		shardNames[k] = append(shardNames[k], name)
	}
	parts := published.SplitTransposed(to, of)
	out := make([]*index.Server, of)
	for k := range out {
		srv, err := index.Adopt(parts[k], shardNames[k])
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", k, err)
		}
		if err := srv.SetShard(k, of); err != nil {
			return nil, err
		}
		out[k] = srv
	}
	return out, nil
}
