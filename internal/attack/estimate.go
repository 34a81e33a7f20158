package attack

import (
	"fmt"
	"math"

	"repro/internal/bitmat"
)

// Frequency-estimation attacks. The paper accepts that for *revealed*
// (non-hidden) identities the published β — which every provider learns —
// carries the identity's true frequency: Equation 3 is invertible in σ.
// For identities published as common (β = 1), no inversion exists and the
// observed column is saturated, so the estimator is blind — exactly the
// asymmetry the identity-mixing defence relies on. These estimators make
// that boundary measurable.

// InvertBasicBeta recovers σ from a basic-policy β (Equation 3 solved for
// σ): σ = 1 / (1 + 1/(β·(ε⁻¹−1))). Returns false when β or ε are outside
// the invertible range (β ≥ 1 hides the frequency; β ≤ 0 carries no
// information; ε ∈ {0,1} degenerates).
func InvertBasicBeta(beta, epsilon float64) (float64, bool) {
	if beta <= 0 || beta >= 1 || epsilon <= 0 || epsilon >= 1 {
		return 0, false
	}
	k := 1/epsilon - 1
	sigma := 1 / (1 + 1/(beta*k))
	if math.IsNaN(sigma) || sigma <= 0 || sigma >= 1 {
		return 0, false
	}
	return sigma, true
}

// EstimateFrequencyFromColumn estimates an identity's true frequency from
// its published column and the public β: the column holds f true positives
// plus ≈ β·(m−f) noise bits, so f̂ = (pub − β·m) / (1 − β). Returns false
// for β ≥ 1 (saturated column, no information).
func EstimateFrequencyFromColumn(published *bitmat.Matrix, j int, beta float64) (float64, bool) {
	if beta >= 1 {
		return 0, false
	}
	if beta < 0 {
		return 0, false
	}
	m := float64(published.Rows())
	pub := float64(published.ColCount(j))
	est := (pub - beta*m) / (1 - beta)
	if est < 0 {
		est = 0
	}
	if est > m {
		est = m
	}
	return est, true
}

// EstimationReport summarises a frequency-estimation attack across an
// index.
type EstimationReport struct {
	// RevealedMeanError is the mean absolute error of f̂ over revealed
	// identities (providers' count units).
	RevealedMeanError float64
	// RevealedCount is the number of identities the estimator could attack.
	RevealedCount int
	// BlindCount is the number of identities with β = 1 where the
	// estimator has no signal at all.
	BlindCount int
}

// EstimateAll mounts the estimator against every identity of a published
// index given the public β vector, scoring against the private truth.
func EstimateAll(truth, published *bitmat.Matrix, betas []float64) (*EstimationReport, error) {
	if truth.Cols() != published.Cols() || truth.Rows() != published.Rows() {
		return nil, fmt.Errorf("%w: %dx%d vs %dx%d", ErrShape, truth.Rows(), truth.Cols(), published.Rows(), published.Cols())
	}
	if len(betas) != truth.Cols() {
		return nil, fmt.Errorf("%w: %d β values for %d identities", ErrShape, len(betas), truth.Cols())
	}
	rep := &EstimationReport{}
	var errSum float64
	for j := 0; j < truth.Cols(); j++ {
		est, ok := EstimateFrequencyFromColumn(published, j, betas[j])
		if !ok {
			rep.BlindCount++
			continue
		}
		rep.RevealedCount++
		errSum += math.Abs(est - float64(truth.ColCount(j)))
	}
	if rep.RevealedCount > 0 {
		rep.RevealedMeanError = errSum / float64(rep.RevealedCount)
	}
	return rep, nil
}
