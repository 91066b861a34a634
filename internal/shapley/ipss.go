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
	u := newUtilityTable(len(strata) + len(pset))
	for _, s := range strata {
		u.put(s, o.U(s))
	}
	for _, s := range pset {
		u.put(s, o.U(s))
	}

	// Lines 15-17: truncated MC-SV plug-in estimate.
	phi := make(Values, n)
	for i := 0; i < n; i++ {
		// Fully evaluated strata: S ⊆ N\{i}, |S| < k*; both S and S∪{i}
		// have size <= k* and are in u.
		for size := 0; size < kstar; size++ {
			w := mcWeight(n, size)
			combin.SubsetsOfSizeNotContaining(n, size, i, func(s combin.Coalition) {
				phi[i] += w * (u.at(s.With(i)) - u.at(s))
			})
		}
		// Sampled stratum: S of size k* with S∪{i} ∈ P. S itself is fully
		// evaluated (size k*).
		if len(pset) > 0 {
			w := mcWeight(n, kstar)
			var contrib float64
			cnt := 0
			for _, si := range pset {
				if !si.Has(i) {
					continue
				}
				s := si.Without(i)
				contrib += u.at(si) - u.at(s)
				cnt++
			}
			if a.RescaleSampledStratum && cnt > 0 {
				// Unbiased stratum estimate: mean marginal × stratum size.
				total := combin.Binomial(n-1, kstar)
				contrib = contrib / float64(cnt) * total
			}
			phi[i] += w * contrib
		}
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

// utilityTable holds the utilities one run evaluated, keyed by coalition: a
// combin.Set for the key → dense index step and a slice for the values.
type utilityTable struct {
	index *combin.Set
	vals  []float64
}

func newUtilityTable(capacity int) utilityTable {
	return utilityTable{index: combin.NewSet(capacity), vals: make([]float64, 0, capacity)}
}

// put records s → v; a coalition recorded twice keeps its first value (the
// oracle is deterministic, so the two agree).
func (t *utilityTable) put(s combin.Coalition, v float64) {
	if _, added := t.index.Add(s); added {
		t.vals = append(t.vals, v)
	}
}

// at returns the utility recorded for s. Asking for a coalition the run did
// not evaluate is a bug in the estimator's stratum arithmetic and panics.
func (t *utilityTable) at(s combin.Coalition) float64 { return t.vals[t.index.Find(s)] }
