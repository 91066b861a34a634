package shapley

import (
	"fmt"

	"fedshap/internal/combin"
)

// Two simple reference valuers rounding out the family: leave-one-out (the
// cheapest defensible valuation, O(n) evaluations) and plain Monte-Carlo
// permutation sampling (ApproShapley / Castro et al., the classic unbiased
// estimator that Extended-TMC adds truncation to).

// LeaveOneOut values each client by its marginal contribution to the grand
// coalition: φᵢ = U(N) − U(N\{i}). It needs only n+1 evaluations but is not
// a Shapley value — it ignores every smaller coalition, over-penalising
// redundant clients (two duplicates each get ~0). Provided as the natural
// lower-bound baseline for cost and fairness comparisons.
type LeaveOneOut struct{}

// Name implements Valuer.
func (LeaveOneOut) Name() string { return "Leave-One-Out" }

// Values implements Valuer.
func (LeaveOneOut) Values(ctx *Context) (Values, error) {
	o := ctx.Oracle
	n := o.N()
	full := combin.FullCoalition(n)
	uAll := o.U(full)
	phi := make(Values, n)
	for i := 0; i < n; i++ {
		phi[i] = uAll - o.U(full.Without(i))
	}
	return phi, nil
}

// PermSampling is plain Monte-Carlo permutation sampling without
// truncation: sample random client orderings, walk each accumulating
// marginal contributions, stop at the evaluation budget. Unbiased for the
// Shapley value; the baseline Extended-TMC improves on with truncation.
type PermSampling struct {
	// Gamma is the evaluation budget.
	Gamma int
	// MaxPermutations bounds the sampled permutations (0 = no bound).
	MaxPermutations int
}

// NewPermSampling returns the sampler with budget γ.
func NewPermSampling(gamma int) *PermSampling { return &PermSampling{Gamma: gamma} }

// Name implements Valuer.
func (a *PermSampling) Name() string { return fmt.Sprintf("Perm-MC(γ=%d)", a.Gamma) }

// Values implements Valuer.
func (a *PermSampling) Values(ctx *Context) (Values, error) {
	o := ctx.Oracle
	n := o.N()
	u := o.U
	uEmpty := u(combin.Empty)
	sums := make(Values, n)
	limit := maxDraws
	if a.MaxPermutations > 0 {
		limit = min(limit, a.MaxPermutations)
	}
	var perm []int
	perms := 0
	for ; drawAgain(a.Gamma, o.Evals(), perms, limit); perms++ {
		perm = combin.PermInto(ctx.RNG, n, perm)
		walkPerm(sums, perm, uEmpty, u)
	}
	sums.scale(1.0 / float64(perms))
	return sums, nil
}
