package fedshap

import (
	"fedshap/internal/combin"
	"fedshap/internal/shapley"
	"fedshap/internal/theory"
)

// Constructors for every valuation algorithm in the suite. All of them
// return Valuer values accepted by Federation.Value.

// IPSS returns the paper's contribution: Importance-Pruned Stratified
// Sampling with evaluation budget gamma (Alg. 3). It exhaustively evaluates
// the small "key combinations", spends the remaining budget on a balanced
// sample one size up, and prunes everything larger.
func IPSS(gamma int) Valuer { return shapley.NewIPSS(gamma) }

// IPSSRescaled is the E-AB1 ablation: IPSS with a Horvitz-Thompson
// rescaling of the partially sampled stratum.
func IPSSRescaled(gamma int) Valuer {
	return &shapley.IPSS{Gamma: gamma, RescaleSampledStratum: true}
}

// ExactShapley computes the exact Shapley value via the MC-SV scheme
// (2ⁿ coalition evaluations).
func ExactShapley() Valuer { return shapley.ExactMC{} }

// ExactShapleyCC computes the exact Shapley value via the CC-SV scheme.
func ExactShapleyCC() Valuer { return shapley.ExactCC{} }

// PermShapley computes the exact Shapley value by full permutation
// enumeration (n!·n marginals; feasible only for n ≤ 12).
func PermShapley() Valuer { return shapley.ExactPerm{} }

// Stratified returns the unified stratified sampling framework (Alg. 1)
// under the chosen scheme, with budget gamma split evenly across strata.
func Stratified(scheme Scheme, gamma int) Valuer {
	return shapley.NewStratified(shapley.Scheme(scheme), gamma)
}

// Scheme selects the Shapley computation scheme for Stratified.
type Scheme int

// The two computation schemes of the paper's Sec. II-B.
const (
	// MCScheme pairs coalitions by marginal contribution (Def. 3) —
	// the lower-variance choice (Theorem 2).
	MCScheme Scheme = Scheme(shapley.MC)
	// CCScheme pairs coalitions by complementary contribution (Def. 4).
	CCScheme Scheme = Scheme(shapley.CC)
)

// StratifiedNeyman returns the two-phase variance-aware extension of
// Alg. 1: a uniform pilot estimates per-stratum variances, then the
// remaining budget follows Neyman allocation, with pooled-mean shrinkage
// for unsampled (client, stratum) cells. An extension beyond the paper,
// which leaves the per-stratum budget m_k unspecified.
func StratifiedNeyman(gamma int) Valuer { return shapley.NewStratifiedNeyman(gamma) }

// KGreedy returns the Alg. 2 probe: exact truncated MC-SV over all
// combinations of at most k clients.
func KGreedy(k int) Valuer { return &shapley.KGreedy{K: k} }

// TMC returns the Extended-TMC baseline (truncated Monte Carlo permutation
// sampling) with evaluation budget gamma.
func TMC(gamma int) Valuer { return shapley.NewTMC(gamma) }

// GTB returns the Extended-GTB baseline (group-testing-based estimation)
// with evaluation budget gamma.
func GTB(gamma int) Valuer { return shapley.NewGTB(gamma) }

// CCShapley returns the CC-Shapley baseline (complementary-contribution
// sampling, Zhang et al.) with evaluation budget gamma.
func CCShapley(gamma int) Valuer { return shapley.NewCCShapley(gamma) }

// DIGFL returns the DIG-FL baseline (O(n) per-round leave-one-out
// evaluation; falls back to leave-one-out retraining for tree models).
func DIGFL() Valuer { return shapley.DIGFL{} }

// OR returns the OR gradient-reconstruction baseline (Song et al.). Not
// applicable to tree models.
func OR() Valuer { return shapley.OR{} }

// LambdaMR returns the λ-MR per-round gradient baseline (Wei et al.) with
// decay lambda in (0,1]; lambda = 1 averages rounds uniformly. Not
// applicable to tree models.
func LambdaMR(lambda float64) Valuer { return &shapley.LambdaMR{Lambda: lambda} }

// GTGShapley returns the GTG-Shapley guided-truncation gradient baseline
// (Liu et al.). Not applicable to tree models.
func GTGShapley() Valuer { return shapley.GTGShapley{} }

// LeaveOneOut returns the O(n) leave-one-out baseline φᵢ = U(N) − U(N\{i}).
// Cheap but not a Shapley value: perfect substitutes are both zeroed.
func LeaveOneOut() Valuer { return shapley.LeaveOneOut{} }

// PermSampling returns plain Monte-Carlo permutation sampling (ApproShapley)
// with evaluation budget gamma — the untruncated ancestor of Extended-TMC.
func PermSampling(gamma int) Valuer { return shapley.NewPermSampling(gamma) }

// Banzhaf returns the exact Banzhaf value (a robustness-oriented valuation
// variant; 2ⁿ evaluations). Unlike the Shapley value it does not satisfy
// efficiency, but it is provably the most noise-robust semivalue.
func Banzhaf() Valuer { return shapley.ExactBanzhaf{} }

// BanzhafMC returns the Monte-Carlo Banzhaf approximation with evaluation
// budget gamma.
func BanzhafMC(gamma int) Valuer { return shapley.NewMCBanzhaf(gamma) }

// PlanBudget inverts the paper's Theorem 3 error bound: it returns the IPSS
// budget γ that guarantees a relative truncation error of at most epsRel
// for a federation of n clients holding samplesPerClient samples of
// featureDim features each, under the linear-regression analysis model.
func PlanBudget(n, samplesPerClient, featureDim int, epsRel float64) int {
	return int(theory.PlanGamma(n, samplesPerClient, featureDim, epsRel))
}

// toCoalition converts a member list to the internal bitmask form.
func toCoalition(members []int) combin.Coalition {
	return combin.NewCoalition(members...)
}
