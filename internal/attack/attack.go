// Package attack implements the paper's threat model (Section II-B): the
// primary attack and the new common-identity attack, plus the measurement
// of attacker confidence and the classification into the paper's privacy
// degrees (Table II).
package attack

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/bitmat"
)

// ErrShape reports mismatched matrices.
var ErrShape = errors.New("attack: matrix dimensions mismatch")

// PrimaryConfidence returns the attacker's success probability for the
// primary attack on identity column j: the attacker picks any provider
// with M'(i,j)=1 and claims M(i,j)=1. Averaged over the published
// positives this equals 1 − fp_j (the paper's privacy-disclosure metric).
// A column with no published positives yields confidence 0 (nothing to
// attack).
func PrimaryConfidence(truth, published *bitmat.Matrix, j int) (float64, error) {
	fp, err := bitmat.ColFalsePositiveRate(truth, published, j)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrShape, err)
	}
	if published.ColCount(j) == 0 {
		return 0, nil
	}
	return 1 - fp, nil
}

// PrimaryAttackTrial simulates one primary attack: the attacker draws a
// uniformly random provider from the published positives of column j and
// succeeds if the provider is a true positive. It returns success and
// whether the column was attackable at all.
func PrimaryAttackTrial(rng *rand.Rand, truth, published *bitmat.Matrix, j int) (success, attackable bool) {
	positives := published.ColOnes(j)
	if len(positives) == 0 {
		return false, false
	}
	pick := positives[rng.Intn(len(positives))]
	return truth.Get(pick, j), true
}

// EpsilonPrivate reports whether the published index meets the ε-PRIVATE
// guarantee (Equation 1) for identity j: attacker confidence ≤ 1 − ε_j.
func EpsilonPrivate(truth, published *bitmat.Matrix, j int, epsilon float64) (bool, error) {
	conf, err := PrimaryConfidence(truth, published, j)
	if err != nil {
		return false, err
	}
	return conf <= 1-epsilon+1e-12, nil
}

// CommonIdentityResult summarises a common-identity attack.
type CommonIdentityResult struct {
	// Picked lists the identity columns the attacker selected as common.
	Picked []int
	// TrueCommons is how many picked identities are truly common.
	TrueCommons int
	// Confidence is TrueCommons / len(Picked) — the attacker's success
	// probability when claiming a picked identity is truly common (and
	// hence every provider a true positive).
	Confidence float64
}

// CommonIdentityAttack mounts the common-identity attack against a
// published index. The attacker ranks identities by an observed frequency
// signal and picks all identities whose signal reaches signalThreshold
// (typically: appears at every provider, or in every group). isCommon[j]
// tells ground truth. signal[j] is whatever channel the target system
// exposes:
//
//   - for ε-PPI and grouping PPI, the published column counts (public);
//   - for SS-PPI, the exact leaked frequencies (construction-time leak).
func CommonIdentityAttack(signal []uint64, signalThreshold uint64, isCommon []bool) (*CommonIdentityResult, error) {
	if len(signal) != len(isCommon) {
		return nil, fmt.Errorf("%w: %d signals, %d truth flags", ErrShape, len(signal), len(isCommon))
	}
	res := &CommonIdentityResult{}
	for j, s := range signal {
		if s >= signalThreshold {
			res.Picked = append(res.Picked, j)
			if isCommon[j] {
				res.TrueCommons++
			}
		}
	}
	if len(res.Picked) > 0 {
		res.Confidence = float64(res.TrueCommons) / float64(len(res.Picked))
	}
	return res, nil
}

// PublishedFrequencies returns the per-identity published column counts —
// the public frequency signal of a provider-level index.
func PublishedFrequencies(published *bitmat.Matrix) []uint64 {
	out := make([]uint64, published.Cols())
	for j, c := range published.ColCounts() {
		out[j] = uint64(c)
	}
	return out
}

// TopKBySignal returns the k identity columns with the largest signal,
// ties broken by lower index — the "intentionally chosen" victims of the
// threat model.
func TopKBySignal(signal []uint64, k int) []int {
	idx := make([]int, len(signal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return signal[idx[a]] > signal[idx[b]] })
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

// Degree is the paper's qualitative privacy classification.
type Degree int

// Privacy degrees of Section II-C.
const (
	// DegreeUnleaked: the information cannot flow to the attacker at all.
	DegreeUnleaked Degree = iota + 1
	// DegreeEpsilonPrivate: leakage bounded by 1 − ε quantitatively.
	DegreeEpsilonPrivate
	// DegreeNoGuarantee: leakage unpredictable.
	DegreeNoGuarantee
	// DegreeNoProtect: the attack succeeds with certainty.
	DegreeNoProtect
)

// String names the degree as in Table II.
func (d Degree) String() string {
	switch d {
	case DegreeUnleaked:
		return "UNLEAKED"
	case DegreeEpsilonPrivate:
		return "ε-PRIVATE"
	case DegreeNoGuarantee:
		return "NO GUARANTEE"
	case DegreeNoProtect:
		return "NO PROTECT"
	default:
		return fmt.Sprintf("degree(%d)", int(d))
	}
}

// ClassifyPrimary derives the empirical privacy degree of a system under
// the primary attack from per-identity confidences and requested ε values:
// ε-PRIVATE if every identity meets Equation 1 up to the measurement slack,
// NoProtect if some attack is certain while its ε demanded protection,
// NoGuarantee otherwise. slack absorbs sampling noise when confidences are
// averages over finitely many constructions (0 demands exact compliance).
func ClassifyPrimary(confidences, eps []float64, slack float64) (Degree, error) {
	if len(confidences) != len(eps) {
		return 0, fmt.Errorf("%w: %d confidences, %d ε", ErrShape, len(confidences), len(eps))
	}
	allMet := true
	certain := false
	for j, c := range confidences {
		if c > 1-eps[j]+slack+1e-9 {
			allMet = false
		}
		if c >= 1-1e-9 && eps[j] > 1e-9 {
			certain = true
		}
	}
	switch {
	case allMet:
		return DegreeEpsilonPrivate, nil
	case certain:
		return DegreeNoProtect, nil
	default:
		return DegreeNoGuarantee, nil
	}
}
