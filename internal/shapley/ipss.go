package shapley

import (
	"fmt"
	"math/rand"

	"fedshap/internal/combin"
)

// IPSS is the paper's contribution (Alg. 3, Importance-Pruned Stratified
// Sampling). Given a sampling budget γ it:
//
//  1. computes k* = max{k : Σ_{j≤k} C(n,j) ≤ γ} and exhaustively evaluates
//     every combination of size ≤ k* (lines 1-7) — the key combinations;
//  2. spends the remaining budget on a balanced sample P of combinations of
//     size k*+1, with equal per-client coverage so approximation error is
//     fair across clients (lines 8-14, constraints (1)-(3));
//  3. estimates each client's value by the truncated MC-SV plug-in sum over
//     the evaluated combinations (lines 15-17).
//
// Combinations larger than k*+1 are pruned entirely: by the key-combinations
// phenomenon their marginal utilities are small and their MC-SV coefficients
// 1/C(n−1,|S|) are tiny, so the pruned mass is negligible (Theorem 3 bounds
// the relative error by O((n−k*)/(k*·n·t))).
type IPSS struct {
	// Gamma is the total sampling budget γ (coalition evaluations).
	Gamma int
	// RescaleSampledStratum, when true, applies a Horvitz-Thompson
	// correction to the partially sampled stratum k*+1: each sampled
	// marginal is scaled by (number of size-k* subsets avoiding i) /
	// (number sampled for i), making the stratum term an unbiased estimate
	// of its full sum rather than the paper's plug-in partial sum. This is
	// an ablation of the paper's design choice (E-AB1 in ARCHITECTURE.md,
	// Paper experiment map), not part of Alg. 3.
	RescaleSampledStratum bool
	// UnbalancedP, when true, replaces the balanced sample of line 11
	// (constraint (3): equal per-client coverage) with plain uniform
	// sampling — the E-AB2 ablation.
	UnbalancedP bool
}

// NewIPSS returns the paper-faithful algorithm with budget γ.
func NewIPSS(gamma int) *IPSS { return &IPSS{Gamma: gamma} }

// Name implements Valuer.
func (a *IPSS) Name() string {
	switch {
	case a.RescaleSampledStratum:
		return fmt.Sprintf("IPSS-rescaled(γ=%d)", a.Gamma)
	case a.UnbalancedP:
		return fmt.Sprintf("IPSS-unbalanced(γ=%d)", a.Gamma)
	default:
		return fmt.Sprintf("IPSS(γ=%d)", a.Gamma)
	}
}

// samplePlan replays Alg. 3 lines 1-11 — the deterministic part of the
// algorithm: the stratum boundary k*, the exhaustively evaluated strata of
// size ≤ k* (in enumeration order) and the balanced sample P of size k*+1
// drawn from rng. Both Values and SamplePlan consume it, so the parallel
// evaluation plan, the evaluated set and the estimator's stratum boundary
// cannot drift apart.
func (a *IPSS) samplePlan(n int, rng *rand.Rand) (kstar int, strata, pset []combin.Coalition) {
	gamma := a.Gamma
	if gamma < 1 {
		gamma = 1
	}

	// Line 1: k* = max{k | Σ_{j=0..k} C(n,j) <= γ}.
	kstar = combin.MaxFullStratum(n, uint64(gamma))
	if kstar < 0 {
		kstar = 0 // degenerate budget: still evaluate the empty coalition
	}

	// Lines 2-7: all combinations of size <= k*.
	strata = combin.AppendSubsetsUpTo(nil, n, kstar)

	// Lines 8-11: sample P at size k*+1 within the remaining budget, with
	// equal per-client coverage (constraint (3)) unless ablated.
	remaining := gamma - int(combin.CumulativeBinomial(n, kstar))
	if kstar+1 <= n && remaining > 0 {
		if a.UnbalancedP {
			pset = combin.SampleStratumWithoutReplacement(n, kstar+1, remaining, rng)
		} else {
			pset = combin.BalancedStratumSample(n, kstar+1, remaining, rng)
		}
	}
	return kstar, strata, pset
}

// Values implements Valuer, following Alg. 3: plan the evaluation set, run
// it through the oracle, then reduce.
func (a *IPSS) Values(ctx *Context) (Values, error) {
	o := ctx.Oracle
	n := o.N()
	kstar, strata, pset := a.samplePlan(n, ctx.RNG)

	// Lines 2-7 and 12-14: evaluate the strata then the sampled
	// combinations, in plan order.
	u := evaluate(o, strata, pset)

	// Lines 15-17: truncated MC-SV plug-in estimate. Fully evaluated
	// strata first: S ⊆ N\{i}, |S| < k*; both S and S∪{i} have size <= k*.
	phi := truncatedMC(n, kstar, &u)
	if len(pset) == 0 {
		return phi, nil
	}
	// Sampled stratum: S of size k* with S∪{i} ∈ P. S itself is fully
	// evaluated (size k*).
	w := mcWeight(n, kstar)
	for i := 0; i < n; i++ {
		var contrib float64
		cnt := 0
		for _, si := range pset {
			if !si.Has(i) {
				continue
			}
			contrib += u.at(si) - u.at(si.Without(i))
			cnt++
		}
		if a.RescaleSampledStratum && cnt > 0 {
			// Unbiased stratum estimate: mean marginal × stratum size.
			contrib = contrib / float64(cnt) * combin.Binomial(n-1, kstar)
		}
		phi[i] += w * contrib
	}
	return phi, nil
}

// KStar exposes the Alg. 3 line-1 computation for reporting and tests.
func (a *IPSS) KStar(n int) int {
	g := a.Gamma
	if g < 1 {
		g = 1
	}
	return combin.MaxFullStratum(n, uint64(g))
}
