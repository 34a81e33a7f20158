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

// Group buckets owners by owning shard for a batched lookup:
// Group(owners, of)[k] lists the owners routed to shard k, in first-
// appearance order with duplicates removed — one sub-batch request per
// shard resolves every distinct owner exactly once, and the caller maps
// answers back to the original (possibly repeating) positions. It panics
// on of < 1, like For.
func Group(owners []string, of int) [][]string {
	if of < 1 {
		panic(fmt.Sprintf("shard: bad shard count %d", of))
	}
	groups := make([][]string, of)
	seen := make(map[string]struct{}, len(owners))
	for _, owner := range owners {
		if _, dup := seen[owner]; dup {
			continue
		}
		seen[owner] = struct{}{}
		k := For(owner, of)
		groups[k] = append(groups[k], owner)
	}
	return groups
}

// Partition splits a published index into `of` column shards. Shard k
// receives the columns of every identity with For(name, of) == k, in the
// original column order; provider rows are complete in every shard, so
// shard-local QueryPPI answers are bit-identical to the full index.
// Shards with no identities are valid (small n, unlucky hash) — they
// serve an empty index that still reports all m providers.
//
// The index is owner-major (one row per identity), so the split costs one
// tiled transpose of M' and one contiguous row copy per identity — no
// per-bit column walk.
func Partition(published *bitmat.Matrix, names []string, of int) ([]*index.Server, error) {
	if of < 1 { // before paying for the transpose
		return nil, fmt.Errorf("shard: bad shard count %d", of)
	}
	full, err := index.NewServer(published, names)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	return PartitionServer(full, of)
}

// PartitionServer is Partition over an existing full server (e.g. one
// loaded from an unsharded snapshot file): its owner rows are split as
// they are stored, and every shard inherits its epoch.
func PartitionServer(full *index.Server, of int) ([]*index.Server, error) {
	if full == nil {
		return nil, errors.New("shard: nil server")
	}
	if of < 1 {
		return nil, fmt.Errorf("shard: bad shard count %d", of)
	}
	if _, _, sharded := full.ShardInfo(); sharded {
		return nil, errors.New("shard: refusing to re-partition an already-sharded index")
	}
	rows := make([][]int, of) // shard → owner positions in full
	for j, name := range full.Names() {
		k := For(name, of)
		rows[k] = append(rows[k], j)
	}
	out := make([]*index.Server, of)
	for k := range out {
		srv, err := full.Select(rows[k])
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", k, err)
		}
		if err := srv.SetShard(k, of); err != nil {
			return nil, err
		}
		srv.SetEpoch(full.Epoch())
		out[k] = srv
	}
	return out, nil
}
