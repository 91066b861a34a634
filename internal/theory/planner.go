package theory

import (
	"math"

	"fedshap/internal/combin"
)

// Budget planning: invert the Theorem 3 error bound to answer the question
// a practitioner actually asks — "how many coalition evaluations do I need
// for a target relative error?" — instead of guessing γ.

// PlanKStar returns the smallest truncation size k* whose Theorem 3 bound
// is at most epsRel for a federation of n clients with t samples each and
// dim input features. Returns n (full evaluation) when no smaller k*
// reaches the target.
func PlanKStar(n, t, dim int, epsRel float64) int {
	for k := 1; k < n; k++ {
		if b := TheoremThreeBound(n, t, dim, k); b <= epsRel {
			return k
		}
	}
	return n
}

// PlanGamma returns the evaluation budget γ that lets IPSS fully evaluate
// all strata up to PlanKStar(n, t, dim, epsRel): Σ_{j≤k*} C(n,j). The
// result saturates at 2ⁿ (exact computation) and is the budget to pass to
// IPSS for the requested accuracy.
func PlanGamma(n, t, dim int, epsRel float64) uint64 {
	kstar := PlanKStar(n, t, dim, epsRel)
	total := combin.CumulativeBinomial(n, n)
	gamma := combin.CumulativeBinomial(n, kstar)
	if gamma > total {
		return total
	}
	return gamma
}

// GammaForN returns the paper's sampling-budget policy for a federation of
// n clients: Table III where the paper tabulates it (n=3→5, n=6→8,
// n=10→32), the Fig. 9 rule γ = ⌈n·ln n⌉ for every other size, and never
// less than 2 (degenerate n included).
func GammaForN(n int) int {
	switch n {
	case 3:
		return 5
	case 6:
		return 8
	case 10:
		return 32
	}
	if n <= 1 {
		return 2
	}
	return int(math.Ceil(float64(n) * math.Log(float64(n))))
}

// SpeedupOverExact returns the expected evaluation-count speedup of IPSS at
// budget γ versus the exact 2ⁿ computation — the headline efficiency claim
// (e.g. the paper's "99% reduction vs MC-Shapley" at n = 10, γ = 32).
func SpeedupOverExact(n int, gamma uint64) float64 {
	if gamma == 0 {
		return math.Inf(1)
	}
	return math.Pow(2, float64(n)) / float64(gamma)
}
