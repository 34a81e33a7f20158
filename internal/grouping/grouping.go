// Package grouping implements the k-anonymity-style baseline PPIs that the
// paper compares against (Section V-A1 and Appendix B): the grouping PPI of
// Bawa et al. [12], [13] and the collusion-resistant SS-PPI variant [22].
//
// Providers are randomly assigned to disjoint privacy groups. A group
// reports 1 for an identity if at least one member truly holds it; a
// searcher then contacts every member of every reporting group, which makes
// members of a group mutually indistinguishable. The achieved false-positive
// rate is whatever the random assignment happens to produce — the
// "privacy-quality-agnostic" construction that ε-PPI fixes.
package grouping

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/bitmat"
)

// Variant distinguishes the two grouping baselines.
type Variant int

// Baseline variants.
const (
	// VariantBawa is the original grouping PPI [12], [13]: providers
	// disclose local indexes to form groups; frequencies are not published
	// but remain statistically inferable (NoGuarantee).
	VariantBawa Variant = iota + 1
	// VariantSSPPI is SS-PPI [22]: collusion-resistant construction that,
	// per the paper's analysis, leaks exact identity frequencies to
	// providers during construction (NoProtect under the common-identity
	// attack).
	VariantSSPPI
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case VariantBawa:
		return "grouping-ppi"
	case VariantSSPPI:
		return "ss-ppi"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// Config parameterises a grouping construction.
type Config struct {
	// Groups is the number of disjoint privacy groups.
	Groups int
	// Variant selects the baseline flavour.
	Variant Variant
	// Seed drives the random group assignment.
	Seed int64
}

// ErrBadGroups reports an unusable group count.
var ErrBadGroups = errors.New("grouping: group count must be in [1, providers]")

// Result is a constructed grouping PPI.
type Result struct {
	// Published is the provider-level expansion of the group-level index:
	// M'(i,j) = 1 iff provider i's group reports identity j.
	Published *bitmat.Matrix
	// GroupOf maps provider → group.
	GroupOf []int
	// Members lists providers per group.
	Members [][]int
	// LeakedFrequencies carries the exact per-identity frequencies when the
	// variant leaks them during construction (SS-PPI); nil otherwise. This
	// is the side channel the common-identity attack consumes.
	LeakedFrequencies []uint64
}

// Construct builds the baseline index over the private matrix.
func Construct(truth *bitmat.Matrix, cfg Config) (*Result, error) {
	m, n := truth.Rows(), truth.Cols()
	if cfg.Groups < 1 || cfg.Groups > m {
		return nil, fmt.Errorf("%w: %d groups for %d providers", ErrBadGroups, cfg.Groups, m)
	}
	if cfg.Variant != VariantBawa && cfg.Variant != VariantSSPPI {
		return nil, fmt.Errorf("grouping: unknown variant %v", cfg.Variant)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Random balanced assignment: shuffle providers, deal round-robin.
	perm := rng.Perm(m)
	groupOf := make([]int, m)
	members := make([][]int, cfg.Groups)
	for pos, prov := range perm {
		g := pos % cfg.Groups
		groupOf[prov] = g
		members[g] = append(members[g], prov)
	}

	published, err := bitmat.New(m, n)
	if err != nil {
		return nil, err
	}
	for j := 0; j < n; j++ {
		for g := 0; g < cfg.Groups; g++ {
			has := false
			for _, prov := range members[g] {
				if truth.Get(prov, j) {
					has = true
					break
				}
			}
			if !has {
				continue
			}
			for _, prov := range members[g] {
				published.Set(prov, j, true)
			}
		}
	}

	res := &Result{Published: published, GroupOf: groupOf, Members: members}
	if cfg.Variant == VariantSSPPI {
		leaked := make([]uint64, n)
		for j, c := range truth.ColCounts() {
			leaked[j] = uint64(c)
		}
		res.LeakedFrequencies = leaked
	}
	return res, nil
}

// GroupsReporting returns, for identity column j, the number of groups
// whose bit is set — the signal the common-identity attack reads from a
// grouping PPI (a term reported by every group is almost surely common).
func (r *Result) GroupsReporting(j int) int {
	count := 0
	for _, mem := range r.Members {
		if len(mem) > 0 && r.Published.Get(mem[0], j) {
			count++
		}
	}
	return count
}
