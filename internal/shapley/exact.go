package shapley

import "fedshap/internal/combin"

// ExactMC computes the exact Shapley value via the marginal-contribution
// scheme of Def. 3:
//
//	φᵢ = Σ_{S ⊆ N\{i}} [U(S∪{i}) − U(S)] / (n · C(n−1, |S|))
//
// It evaluates all 2ⁿ coalitions (the paper's "MC-Shapley" baseline).
type ExactMC struct{}

// Name implements Valuer.
func (ExactMC) Name() string { return "MC-Shapley" }

// Values implements Valuer.
func (ExactMC) Values(ctx *Context) (Values, error) {
	n := ctx.Oracle.N()
	return exactMC(n, denseTable(n, ctx.Oracle.U)), nil
}

// ExactCC computes the exact Shapley value via the complementary-
// contribution scheme of Def. 4:
//
//	φᵢ = Σ_{S ⊆ N\{i}} [U(S∪{i}) − U(N\(S∪{i}))] / (n · C(n−1, |S|))
type ExactCC struct{}

// Name implements Valuer.
func (ExactCC) Name() string { return "CC-exact" }

// Values implements Valuer.
func (ExactCC) Values(ctx *Context) (Values, error) {
	n := ctx.Oracle.N()
	u := denseTable(n, ctx.Oracle.U)
	full := combin.FullCoalition(n)
	phi := make(Values, n)
	combin.AllSubsets(n, func(s combin.Coalition) {
		size := s.Size()
		for i := 0; i < n; i++ {
			if s.Has(i) {
				continue
			}
			si := s.With(i)
			w := mcWeight(n, size)
			phi[i] += w * (u[si.Index()] - u[full.Minus(si).Index()])
		}
	})
	return phi, nil
}

// ExactPerm computes the exact Shapley value by enumerating all n!
// permutations and averaging marginal contributions (the paper's
// "Perm-Shapley" baseline). Mathematically identical to ExactMC but with
// the factorial-cost computation scheme; feasible only for small n.
type ExactPerm struct{}

// Name implements Valuer.
func (ExactPerm) Name() string { return "Perm-Shapley" }

// Values implements Valuer.
func (ExactPerm) Values(ctx *Context) (Values, error) {
	n := ctx.Oracle.N()
	u := denseTable(n, ctx.Oracle.U)
	at := func(s combin.Coalition) float64 { return u[s.Index()] }
	phi := make(Values, n)
	count := 0
	combin.ForEachPermutation(n, func(p []int) {
		count++
		walkPerm(phi, p, at(combin.Empty), at)
	})
	if count > 0 {
		phi.scale(1.0 / float64(count))
	}
	return phi, nil
}
