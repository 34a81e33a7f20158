// Package mathx implements the numeric machinery of ε-PPI construction:
// the three publishing-probability (β) policies of Section III-B of the
// paper (basic, incremented-expectation and Chernoff-bound), the
// identity-mixing rate λ (Equation 7), and supporting probability helpers.
//
// All policies consume an identity's network frequency σ ∈ [0,1] (the
// fraction of the m providers that truly hold the identity) and the owner's
// requested privacy degree ε ∈ [0,1], and produce a probability β with which
// each *negative* provider independently flips its 0 bit to a published 1.
package mathx

import (
	"errors"
	"fmt"
	"math"
)

// Policy identifies one of the paper's three β-calculation policies.
type Policy int

const (
	// PolicyBasic is the expectation-based policy of Equation 3. It attains
	// fp_j >= ε_j with only ~50% success ratio.
	PolicyBasic Policy = iota + 1
	// PolicyIncremented adds a constant Δ to the basic policy (Equation 4).
	PolicyIncremented
	// PolicyChernoff derives β from a Chernoff tail bound so that
	// fp_j >= ε_j holds with a configurable success ratio γ (Equation 5,
	// Theorem 3.1).
	PolicyChernoff
)

// String returns the policy name used in experiment output.
func (p Policy) String() string {
	switch p {
	case PolicyBasic:
		return "basic"
	case PolicyIncremented:
		return "inc-exp"
	case PolicyChernoff:
		return "chernoff"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Valid reports whether p is a known policy.
func (p Policy) Valid() bool {
	return p >= PolicyBasic && p <= PolicyChernoff
}

var (
	// ErrBadSigma reports a frequency outside [0, 1].
	ErrBadSigma = errors.New("mathx: frequency σ out of [0,1]")
	// ErrBadEpsilon reports a privacy degree outside [0, 1].
	ErrBadEpsilon = errors.New("mathx: privacy degree ε out of [0,1]")
	// ErrBadGamma reports a Chernoff success ratio outside (0.5, 1).
	ErrBadGamma = errors.New("mathx: success ratio γ must be in (0.5, 1)")
	// ErrBadDelta reports a negative increment Δ.
	ErrBadDelta = errors.New("mathx: increment Δ must be >= 0")
	// ErrBadProviders reports a non-positive provider count.
	ErrBadProviders = errors.New("mathx: provider count m must be > 0")
	// ErrUnknownPolicy reports an unrecognised Policy value.
	ErrUnknownPolicy = errors.New("mathx: unknown β policy")
)

// BetaParams bundles the inputs of a β calculation.
type BetaParams struct {
	// Sigma is the identity frequency σ ∈ [0,1]: the fraction of providers
	// that truly hold the identity.
	Sigma float64
	// Epsilon is the owner's privacy degree ε ∈ [0,1].
	Epsilon float64
	// M is the number of providers in the network.
	M int
	// Delta is the increment Δ of the incremented-expectation policy.
	Delta float64
	// Gamma is the target success ratio γ ∈ (0.5, 1) of the Chernoff policy.
	Gamma float64
}

func (p BetaParams) validate(policy Policy) error {
	if p.Sigma < 0 || p.Sigma > 1 || math.IsNaN(p.Sigma) {
		return fmt.Errorf("%w: %v", ErrBadSigma, p.Sigma)
	}
	if p.Epsilon < 0 || p.Epsilon > 1 || math.IsNaN(p.Epsilon) {
		return fmt.Errorf("%w: %v", ErrBadEpsilon, p.Epsilon)
	}
	if p.M <= 0 {
		return fmt.Errorf("%w: %d", ErrBadProviders, p.M)
	}
	switch policy {
	case PolicyBasic:
	case PolicyIncremented:
		if p.Delta < 0 || math.IsNaN(p.Delta) {
			return fmt.Errorf("%w: %v", ErrBadDelta, p.Delta)
		}
	case PolicyChernoff:
		if p.Gamma <= 0.5 || p.Gamma >= 1 || math.IsNaN(p.Gamma) {
			return fmt.Errorf("%w: %v", ErrBadGamma, p.Gamma)
		}
	default:
		return fmt.Errorf("%w: %v", ErrUnknownPolicy, policy)
	}
	return nil
}

// Beta computes the raw publishing probability β* for the given policy.
// The result is clamped to [0, 1]; a clamped value of exactly 1 marks the
// identity as *common* (β* >= 1 in the paper) and triggers identity mixing
// downstream.
//
// Edge cases, matching the paper's semantics:
//   - ε = 0 (no privacy requested): β = 0, the truthful vector is published.
//   - ε = 1 (full privacy): β = 1, the identity is broadcast to everyone.
//   - σ = 0 (identity absent): β = 0, nothing to protect.
//   - σ = 1 (identity everywhere): β = 1, the identity is common.
func Beta(policy Policy, p BetaParams) (float64, error) {
	if err := p.validate(policy); err != nil {
		return 0, err
	}
	raw, err := rawBeta(policy, p)
	if err != nil {
		return 0, err
	}
	return clamp01(raw), nil
}

// Each policy is written as a σ side, an ε side and a combine step, so a
// caller that evaluates one policy at many (σ, ε) pairs — the threshold
// search of a whole construction — can compute each side once and still run
// exactly the expressions BetaBasic, BetaIncremented and BetaChernoff run.
// The sides are plain float64 values whose last operation is never a
// multiply, and the combine step's first product feeds a division, so no
// fused multiply-add can span a side and its combine step: precomputed and
// on-the-fly sides give bit-identical β on every GOARCH.

// SigmaSide is the σ side of the policies at one frequency σ.
type SigmaSide struct {
	// Sigma is σ itself, for the edge branches.
	Sigma float64
	// Inv is σ⁻¹ − 1, Equation 3's σ factor.
	Inv float64
	// G is Theorem 3.1's G(σ); only CombineChernoff reads it.
	G float64
}

// EpsSide is the ε side of the policies at one privacy degree ε.
type EpsSide struct {
	// Epsilon is ε itself, for the edge branches.
	Epsilon float64
	// Inv is ε⁻¹ − 1, Equation 3's ε factor.
	Inv float64
}

// BasicSigma is the σ side of the basic and incremented policies.
func BasicSigma(sigma float64) SigmaSide {
	return SigmaSide{Sigma: sigma, Inv: 1/sigma - 1}
}

// ChernoffSigma is the σ side of the Chernoff policy, for lnGamma =
// ChernoffLog(γ).
func ChernoffSigma(sigma float64, m int, lnGamma float64) SigmaSide {
	s := BasicSigma(sigma)
	s.G = chernoffG(sigma, m, lnGamma)
	return s
}

// Eps is the ε side of every policy.
func Eps(epsilon float64) EpsSide {
	return EpsSide{Epsilon: epsilon, Inv: 1/epsilon - 1}
}

// CombineBasic is Equation 3 from its two sides (unclamped), edge branches
// included.
func CombineBasic(s SigmaSide, e EpsSide) float64 {
	switch {
	case e.Epsilon <= 0 || s.Sigma <= 0:
		return 0
	case e.Epsilon >= 1 || s.Sigma >= 1:
		return math.Inf(1)
	}
	return 1 / (s.Inv * e.Inv)
}

// CombineIncremented is Equation 4 from its two sides (unclamped).
func CombineIncremented(s SigmaSide, e EpsSide, delta float64) float64 {
	b := CombineBasic(s, e)
	if math.IsInf(b, 1) {
		return b
	}
	if b == 0 {
		// ε=0 or σ=0: nothing to publish regardless of Δ.
		return 0
	}
	return b + delta
}

// CombineChernoff is Equation 5 from its two sides (unclamped).
func CombineChernoff(s SigmaSide, e EpsSide) float64 {
	b := CombineBasic(s, e)
	if math.IsInf(b, 1) {
		return b
	}
	if b == 0 {
		return 0
	}
	g := s.G
	return b + g + math.Sqrt(g*g+2*b*g)
}

// BetaBasic computes Equation 3: β_b = [(σ⁻¹−1)(ε⁻¹−1)]⁻¹ (unclamped).
func BetaBasic(sigma, epsilon float64) float64 {
	return CombineBasic(BasicSigma(sigma), Eps(epsilon))
}

// BetaIncremented computes Equation 4: β_d = β_b + Δ (unclamped).
func BetaIncremented(sigma, epsilon, delta float64) float64 {
	return CombineIncremented(BasicSigma(sigma), Eps(epsilon), delta)
}

// BetaChernoff computes Equation 5:
//
//	G = ln(1/(1−γ)) / ((1−σ)·m)
//	β_c = β_b + G + sqrt(G² + 2·β_b·G)
//
// (unclamped). γ must be in (0.5, 1).
func BetaChernoff(sigma, epsilon float64, m int, gamma float64) float64 {
	return CombineChernoff(ChernoffSigma(sigma, m, ChernoffLog(gamma)), Eps(epsilon))
}

// ChernoffG computes the G term of Theorem 3.1:
// G = ln(1/(1−γ)) / ((1−σ)·m).
func ChernoffG(sigma float64, m int, gamma float64) float64 {
	return chernoffG(sigma, m, ChernoffLog(gamma))
}

// ChernoffLog is the numerator of G, ln(1/(1−γ)): constant for a
// construction, so a caller evaluating G at many σ computes it once.
func ChernoffLog(gamma float64) float64 {
	return math.Log(1 / (1 - gamma))
}

func chernoffG(sigma float64, m int, lnGamma float64) float64 {
	denom := (1 - sigma) * float64(m)
	if denom <= 0 {
		return math.Inf(1)
	}
	return lnGamma / denom
}

func rawBeta(policy Policy, p BetaParams) (float64, error) {
	switch policy {
	case PolicyBasic:
		return BetaBasic(p.Sigma, p.Epsilon), nil
	case PolicyIncremented:
		return BetaIncremented(p.Sigma, p.Epsilon, p.Delta), nil
	case PolicyChernoff:
		return BetaChernoff(p.Sigma, p.Epsilon, p.M, p.Gamma), nil
	default:
		return 0, fmt.Errorf("%w: %v", ErrUnknownPolicy, policy)
	}
}

// IsCommon reports whether a raw (unclamped) β marks the identity as common,
// i.e. β* >= 1 in Equation 6.
func IsCommon(rawBeta float64) bool {
	return rawBeta >= 1 || math.IsInf(rawBeta, 1)
}

// Lambda computes the mixing probability λ of Equation 7:
//
//	λ >= ξ/(1−ξ) · common/(n − common)
//
// where ξ is the required fraction of false positives among published common
// identities (the paper sets ξ = max ε_j over true common identities),
// common is the number of true common identities, and n the total number of
// identities. The returned λ is the smallest value satisfying the
// inequality, clamped to [0, 1].
func Lambda(xi float64, common, n int) (float64, error) {
	if xi < 0 || xi > 1 || math.IsNaN(xi) {
		return 0, fmt.Errorf("%w: ξ=%v", ErrBadEpsilon, xi)
	}
	if common < 0 || n <= 0 || common > n {
		return 0, fmt.Errorf("mathx: invalid counts common=%d n=%d", common, n)
	}
	if common == 0 || xi == 0 {
		// No true common identities to hide, or no mixing required.
		return 0, nil
	}
	nonCommon := n - common
	if nonCommon == 0 || xi == 1 {
		// Everything is common (nothing to mix with) or full obfuscation
		// demanded: exaggerate every non-common identity.
		return 1, nil
	}
	lambda := xi / (1 - xi) * float64(common) / float64(nonCommon)
	return clamp01(lambda), nil
}

// SuccessProbability returns the exact probability that a Binomial(T, β)
// draw X of false positives achieves fp = X/(X+pos) >= ε, where
// T = m - pos is the number of negative providers. It is used by tests and
// experiments to validate the empirical success ratios of the policies.
func SuccessProbability(m, pos int, beta, epsilon float64) float64 {
	if pos < 0 || m < pos {
		return 0
	}
	t := m - pos
	if epsilon <= 0 {
		return 1
	}
	// fp >= ε  ⇔  X >= ε/(1-ε) * pos  (for ε < 1). For ε = 1 we need pos = 0.
	if epsilon >= 1 {
		if pos == 0 {
			return 1
		}
		return 0
	}
	need := int(math.Ceil(epsilon / (1 - epsilon) * float64(pos)))
	if need <= 0 {
		return 1
	}
	if need > t {
		return 0
	}
	return binomialTail(t, beta, need)
}

// binomialTail returns P[X >= k] for X ~ Binomial(n, p). It sums the tail
// that lies away from the mean — the upper tail from k upward when k is
// above the mean, else 1 minus the lower tail from k−1 downward — so the
// first PMF term is the summed tail's largest. A first term that
// underflows then stands for a tail of 0, never for a dropped bulk.
func binomialTail(n int, p float64, k int) float64 {
	if k <= 0 {
		return 1
	}
	if k > n {
		return 0
	}
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	if float64(k) > float64(n)*p {
		// Upper tail: from PMF(k) upward, each term the previous times
		// (n−x)/(x+1) · p/(1−p).
		pmf := binomialPMF(n, p, k)
		sum := pmf
		for x := k; x < n && pmf >= 1e-18*sum; x++ {
			pmf *= float64(n-x) / float64(x+1) * p / (1 - p)
			sum += pmf
		}
		return math.Min(sum, 1)
	}
	// Lower tail P[X ≤ k−1]: from PMF(k−1) downward, each term the
	// previous times x/(n−x+1) · (1−p)/p.
	pmf := binomialPMF(n, p, k-1)
	sum := pmf
	for x := k - 1; x > 0 && pmf >= 1e-18*sum; x-- {
		pmf *= float64(x) / float64(n-x+1) * (1 - p) / p
		sum += pmf
	}
	return math.Max(1-sum, 0)
}

// binomialPMF returns P[X = k] for X ~ Binomial(n, p), via logarithms.
func binomialPMF(n int, p float64, k int) float64 {
	return math.Exp(logChoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p))
}

func logChoose(n, k int) float64 {
	lg, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return lg - lk - lnk
}

func clamp01(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return 0
	case x < 0:
		return 0
	case x > 1:
		return 1
	default:
		return x
	}
}
