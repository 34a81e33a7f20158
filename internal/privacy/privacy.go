// Package privacy computes per-epoch ε-audit reports: the achieved
// privacy of a published matrix M' measured against the guarantee the
// construction was configured to provide (PAPER.md §1, Theorem 3.1).
//
// The paper proves the guarantee once, at construction time. A served
// system needs the property re-derived from the artifact actually being
// published — a bug anywhere between β computation and shard export
// would otherwise degrade privacy silently while every latency metric
// stays green. Compute therefore works only from the two matrices and
// the public policy parameters: for every identity j it counts the
// published positives and the false positives among them, checks the
// ε-PRIVATE inequality fp_j ≥ ε_j (Equation 1) for revealed identities,
// and checks the common-identity mixing defence (published commons vs
// the ξ target) for hidden ones.
//
// Compute produces two artifacts with different audiences. The Report
// is public — it travels with the published index and is served at
// GET /v1/privacy — so it carries aggregates only: per-ε-decile
// histograms of achieved vs guaranteed false-positive rates, counts,
// and a violation list redacted to name and ε. Publishing a
// per-identity achieved FP rate or positive count would let anyone
// recover the true frequency of the identity (σ_j·m = pub_j −
// fp_j·pub_j), exactly the quantity ε-PPI exists to hide — and a
// violation entry is where that matters most, because the identity is
// already under-protected. Likewise the identity→ε-decile map is kept
// out of the Report: it is the target list for the common-identity
// attack. Both live in the companion Detail, a store-local operator
// artifact (privacy_detail.json, mode 0600) that is never served over
// HTTP; the offline analyzer (cmd/eppi-audit) reads it from the epoch
// store's filesystem.
package privacy

import (
	"errors"
	"fmt"

	"repro/internal/bitmat"
)

// Version is the report schema version stamped into privacy.json.
const Version = 1

// NumBuckets is the number of ε deciles a report histograms over:
// [0,0.1), [0.1,0.2), …, [0.9,1.0].
const NumBuckets = 10

// MaxViolations bounds the violation list embedded in a report. The
// full count is always in ViolationCount; the list is a sample for
// operators, not an exhaustive dump — a construction bug that breaks
// thousands of identities should not produce a multi-megabyte report.
const MaxViolations = 256

// ErrRecall reports a published matrix that drops true positives — the
// 1→1 rule of Equation 2 is broken, so the index has lost recall and no
// privacy statement about it is meaningful.
var ErrRecall = errors.New("privacy: published matrix does not cover the truth (recall broken)")

// Input is everything Compute needs. Truth, Published, Names and Eps
// are required; the rest refines the report when available.
type Input struct {
	// Truth is the private membership matrix M.
	Truth *bitmat.Matrix
	// Published is the noise-bearing matrix M' actually being published.
	Published *bitmat.Matrix
	// Names are the identity labels, aligned with the matrix columns.
	Names []string
	// Eps are the per-identity privacy degrees ε_j.
	Eps []float64
	// Thresholds are the public common thresholds t_j (m+1: never
	// common). Optional; without them true commons are not counted.
	Thresholds []uint64
	// Hidden marks identities published as common (all-ones columns:
	// true commons plus mixed-in decoys). Optional; derived from
	// Published when nil.
	Hidden []bool
	// Policy names the β policy the construction ran ("basic",
	// "inc-exp", "chernoff").
	Policy string
	// Gamma is the Chernoff success-ratio target γ (0 otherwise).
	Gamma float64
	// Lambda is the mixing probability λ applied to non-commons.
	Lambda float64
	// Xi is the false-positive fraction targeted within the published
	// common set.
	Xi float64
}

// Report is the per-epoch privacy audit written to privacy.json.
// Field order is load-bearing: the self-checksum re-encodes the struct,
// so writer and reader must agree on it (both use this declaration).
type Report struct {
	Version int    `json:"version"`
	Epoch   uint64 `json:"epoch,omitempty"`
	Policy  string `json:"policy"`
	// Gamma is the configured Chernoff success-ratio target; the
	// acceptance check is SuccessRatio >= Gamma (Theorem 3.1).
	Gamma      float64 `json:"gamma,omitempty"`
	Providers  int     `json:"providers"`
	Identities int     `json:"identities"`
	// Commons counts true common identities (frequency >= t_j); -1 when
	// thresholds were not available to the computation.
	Commons int `json:"commons"`
	// PublishedCommons counts all-ones (hidden) columns in M'.
	PublishedCommons int `json:"published_commons"`
	// MixedIn counts hidden columns that are not true commons — the
	// decoys of the common-identity defence; -1 when unknown.
	MixedIn int `json:"mixed_in"`
	// MixRatio is MixedIn / PublishedCommons, the achieved analogue of
	// the ξ target; -1 when unknown, 0 when nothing is published common.
	MixRatio float64 `json:"mix_ratio"`
	Lambda   float64 `json:"lambda"`
	Xi       float64 `json:"xi"`
	// SuccessRatio is the fraction of revealed identities satisfying
	// Equation 1 (fp_j >= ε_j); 1 when nothing is revealed.
	SuccessRatio float64 `json:"success_ratio"`
	// Buckets histogram the revealed identities by ε decile.
	Buckets []Bucket `json:"buckets"`
	// ViolationCount is the total number of Equation 1 violations;
	// Violations is a sample of at most MaxViolations of them, redacted
	// to name and ε (the full per-identity numbers are in the
	// operator-only Detail).
	ViolationCount int         `json:"violation_count"`
	Violations     []Violation `json:"violations,omitempty"`
	// Checksum is the CRC32 (IEEE, hex) of this report serialized with
	// Checksum itself empty — see WriteFile/ReadFile.
	Checksum string `json:"checksum,omitempty"`
}

// Bucket aggregates the revealed identities of one ε decile.
type Bucket struct {
	// Lo and Hi bound the decile: ε in [Lo, Hi) (the last bucket
	// includes 1.0).
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
	// Identities counts revealed identities in the bucket; Hidden the
	// hidden (published-common) ones, which Equation 1 does not govern.
	Identities int `json:"identities"`
	Hidden     int `json:"hidden"`
	// GuaranteedFP is the mean ε of the bucket — the Equation 1 floor
	// each member's achieved FP rate must reach.
	GuaranteedFP float64 `json:"guaranteed_fp"`
	// AchievedFP is the mean achieved false-positive rate over the
	// bucket's revealed identities with published positives.
	AchievedFP float64 `json:"achieved_fp"`
	// MinFP is the worst (lowest) achieved FP rate among the bucket's
	// revealed identities with published positives; 0 when none have any.
	MinFP float64 `json:"min_fp"`
	// Violations counts bucket members failing Equation 1.
	Violations int `json:"violations"`
}

// Violation is one identity whose published column fails Equation 1:
// achieved false-positive rate below its ε. The public entry carries
// only the name and the ε floor that was missed — never the achieved
// rate or the positive counts, which would hand an attacker the exact
// true provider count (pub − fp) of an identity that is already
// under-protected. The full numbers live in ViolationDetail inside the
// operator-only Detail.
type Violation struct {
	Name    string  `json:"name"`
	Epsilon float64 `json:"epsilon"`
}

// ViolationDetail is the operator-side record of one Equation 1
// violation, with the exact achieved rate and counts an operator needs
// to size the repair. It never appears in the served Report.
type ViolationDetail struct {
	Name           string  `json:"name"`
	Epsilon        float64 `json:"epsilon"`
	AchievedFP     float64 `json:"achieved_fp"`
	Published      int     `json:"published"`
	FalsePositives int     `json:"false_positives"`
}

// Detail is the operator-only companion of a Report: the per-identity
// data the public report must not carry. It is written next to
// privacy.json as privacy_detail.json (mode 0600) and read only from
// the store's filesystem — serving it over HTTP would publish every
// identity's privacy demand and every violator's true provider count.
// Field order is load-bearing for the self-checksum, like Report's.
type Detail struct {
	Version int    `json:"version"`
	Epoch   uint64 `json:"epoch,omitempty"`
	// IdentityBuckets maps each identity name to its ε decile — coarse
	// enough not to reveal ε_j exactly, precise enough for the offline
	// analyzer (cmd/eppi-audit) to join query logs against privacy
	// demand. Keyed by name because the global column order is not
	// recoverable from a sharded epoch store. encoding/json sorts map
	// keys, so the serialization stays canonical for the self-checksum.
	IdentityBuckets map[string]uint8 `json:"identity_buckets"`
	// Violations is the detailed violation sample, aligned with the
	// public report's (same identities, same MaxViolations bound).
	Violations []ViolationDetail `json:"violations,omitempty"`
	// Checksum is the CRC32 (IEEE, hex) of this document serialized
	// with Checksum itself empty — see WriteDetailFile/ReadDetailFile.
	Checksum string `json:"checksum,omitempty"`
}

// slack absorbs float rounding in the Equation 1 comparison, matching
// attack.EpsilonPrivate.
const slack = 1e-12

// BucketIndex returns the ε decile of epsilon: 0 for [0,0.1) … 9 for
// [0.9,1.0]. Out-of-range values clamp.
func BucketIndex(epsilon float64) int {
	idx := int(epsilon * NumBuckets)
	if idx < 0 {
		return 0
	}
	if idx >= NumBuckets {
		return NumBuckets - 1
	}
	return idx
}

// BucketLabel renders a decile for metric labels: "0.3-0.4".
func BucketLabel(idx int) string {
	return fmt.Sprintf("%.1f-%.1f", float64(idx)/NumBuckets, float64(idx+1)/NumBuckets)
}

// Compute audits published M' against truth M and the configured
// policy, returning the epoch-agnostic public report and its
// operator-only detail (the Publisher stamps Epoch when it writes the
// files). The report may be served; the detail must stay on the
// operator's filesystem.
func Compute(in Input) (*Report, *Detail, error) {
	t, p := in.Truth, in.Published
	if t == nil || p == nil {
		return nil, nil, errors.New("privacy: nil matrix")
	}
	if t.Rows() != p.Rows() || t.Cols() != p.Cols() {
		return nil, nil, fmt.Errorf("privacy: truth %dx%d vs published %dx%d",
			t.Rows(), t.Cols(), p.Rows(), p.Cols())
	}
	n := t.Cols()
	if len(in.Names) != n || len(in.Eps) != n {
		return nil, nil, fmt.Errorf("privacy: %d columns, %d names, %d eps", n, len(in.Names), len(in.Eps))
	}
	if in.Thresholds != nil && len(in.Thresholds) != n {
		return nil, nil, fmt.Errorf("privacy: %d columns, %d thresholds", n, len(in.Thresholds))
	}
	if in.Hidden != nil && len(in.Hidden) != n {
		return nil, nil, fmt.Errorf("privacy: %d columns, %d hidden flags", n, len(in.Hidden))
	}
	if !p.Covers(t) {
		return nil, nil, ErrRecall
	}

	m := t.Rows()
	r := &Report{
		Version:    Version,
		Policy:     in.Policy,
		Gamma:      in.Gamma,
		Providers:  m,
		Identities: n,
		Commons:    -1,
		MixedIn:    -1,
		MixRatio:   -1,
		Lambda:     in.Lambda,
		Xi:         in.Xi,
		Buckets:    make([]Bucket, NumBuckets),
	}
	for i := range r.Buckets {
		r.Buckets[i].Lo = float64(i) / NumBuckets
		r.Buckets[i].Hi = float64(i+1) / NumBuckets
		r.Buckets[i].MinFP = 1
	}
	if in.Thresholds != nil {
		r.Commons = 0
		r.MixedIn = 0
	}
	det := &Detail{
		Version:         Version,
		IdentityBuckets: make(map[string]uint8, n),
	}

	// epsSum accumulates per-bucket ε means over revealed identities;
	// fpSum and fpCount accumulate the achieved-FP mean over the subset
	// of them with published positives (an empty column has no rate).
	var epsSum, fpSum [NumBuckets]float64
	var fpCount [NumBuckets]int
	revealed, satisfied := 0, 0
	pubCounts, trueCounts := p.ColCounts(), t.ColCounts()
	for j := 0; j < n; j++ {
		idx := BucketIndex(in.Eps[j])
		det.IdentityBuckets[in.Names[j]] = uint8(idx)
		b := &r.Buckets[idx]

		pub, trueCount := pubCounts[j], trueCounts[j]
		hidden := pub == m // all-ones column
		if in.Hidden != nil {
			hidden = in.Hidden[j]
		}
		trueCommon := false
		if in.Thresholds != nil {
			trueCommon = uint64(trueCount) >= in.Thresholds[j]
			if trueCommon {
				r.Commons++
			}
		}
		if hidden {
			r.PublishedCommons++
			b.Hidden++
			if in.Thresholds != nil && !trueCommon {
				r.MixedIn++
			}
			// Hidden columns are governed by the mixing defence (ξ),
			// not Equation 1: their FP rate is 1−σ_j by construction
			// and reveals σ_j exactly, so it stays out of the buckets.
			continue
		}

		fp := pub - trueCount
		fpRate := 0.0
		if pub > 0 {
			fpRate = float64(fp) / float64(pub)
		}
		revealed++
		b.Identities++
		epsSum[idx] += in.Eps[j]
		// Equation 1: attacker confidence 1−fp_j must stay ≤ 1−ε_j,
		// i.e. fp_j ≥ ε_j. An empty column offers nothing to attack.
		ok := pub == 0 || fpRate >= in.Eps[j]-slack
		if ok {
			satisfied++
		} else {
			r.ViolationCount++
			b.Violations++
			if len(r.Violations) < MaxViolations {
				r.Violations = append(r.Violations, Violation{
					Name:    in.Names[j],
					Epsilon: in.Eps[j],
				})
				det.Violations = append(det.Violations, ViolationDetail{
					Name:           in.Names[j],
					Epsilon:        in.Eps[j],
					AchievedFP:     fpRate,
					Published:      pub,
					FalsePositives: fp,
				})
			}
		}
		if pub > 0 {
			fpSum[idx] += fpRate
			fpCount[idx]++
			if fpRate < b.MinFP {
				b.MinFP = fpRate
			}
		}
	}

	for i := range r.Buckets {
		b := &r.Buckets[i]
		if b.Identities > 0 {
			b.GuaranteedFP = epsSum[i] / float64(b.Identities)
		}
		// Achieved-FP statistics are over identities with published
		// positives only: empty columns have no rate to average, and a
		// bucket with none of them has no meaningful minimum either.
		if fpCount[i] > 0 {
			b.AchievedFP = fpSum[i] / float64(fpCount[i])
		} else {
			b.MinFP = 0
		}
	}
	r.SuccessRatio = 1
	if revealed > 0 {
		r.SuccessRatio = float64(satisfied) / float64(revealed)
	}
	if in.Thresholds != nil {
		r.MixRatio = 0
		if r.PublishedCommons > 0 {
			r.MixRatio = float64(r.MixedIn) / float64(r.PublishedCommons)
		}
	}
	return r, det, nil
}
