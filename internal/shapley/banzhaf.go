package shapley

import (
	"fmt"
	"math/rand"

	"fedshap/internal/combin"
)

// The Banzhaf value is the robustness-oriented cousin of the Shapley value
// (Wang & Jia's "Data Banzhaf", cited by the paper as a valuation variant):
// it averages a client's marginal contributions uniformly over all 2^{n-1}
// coalitions instead of stratifying by size, which provably maximises
// robustness to noisy utility functions. Provided as an extension so
// downstream users can trade the efficiency axiom for noise robustness.

// ExactBanzhaf computes βᵢ = 2^{-(n-1)} Σ_{S⊆N\{i}} [U(S∪{i}) − U(S)]
// over all coalitions (2ⁿ evaluations).
type ExactBanzhaf struct{}

// Name implements Valuer.
func (ExactBanzhaf) Name() string { return "Banzhaf-exact" }

// Values implements Valuer.
func (ExactBanzhaf) Values(ctx *Context) (Values, error) {
	n := ctx.Oracle.N()
	u := denseTable(n, ctx.Oracle.U)
	phi := make(Values, n)
	combin.AllSubsets(n, func(s combin.Coalition) {
		us := u[s.Index()]
		for i := 0; i < n; i++ {
			if s.Has(i) {
				continue
			}
			phi[i] += u[s.With(i).Index()] - us
		}
	})
	scale := 1.0
	for k := 1; k < n; k++ {
		scale /= 2
	}
	phi.scale(scale)
	return phi, nil
}

// MCBanzhaf approximates the Banzhaf value by Monte Carlo: coalitions are
// drawn uniformly from 2^N (each client joins independently with
// probability ½), and each draw's utility pairs with its single-client
// toggles under the evaluation budget γ.
type MCBanzhaf struct {
	// Gamma is the evaluation budget.
	Gamma int
}

// NewMCBanzhaf returns the sampler with budget γ.
func NewMCBanzhaf(gamma int) *MCBanzhaf { return &MCBanzhaf{Gamma: gamma} }

// Name implements Valuer.
func (a *MCBanzhaf) Name() string { return fmt.Sprintf("Banzhaf-MC(γ=%d)", a.Gamma) }

// forEachDraw replays the Monte-Carlo toggle draws: each iteration draws a
// uniform coalition and a client to toggle, and hands the (with, without)
// pair to visit, which evaluates (or, for planning, records) it and returns
// the run's distinct-request count — the budget meter driving the stop
// condition exactly as Source.Evals does. evals seeds the meter (0 for a
// fresh budget scope).
func (a *MCBanzhaf) forEachDraw(n, evals int, rng *rand.Rand, visit func(i int, with, without combin.Coalition) int) {
	for draws := 0; drawAgain(a.Gamma, evals, draws, maxDraws); draws++ {
		// Uniform coalition: each member joins with probability 1/2.
		var s combin.Coalition
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 1 {
				s = s.With(i)
			}
		}
		// Toggle one uniformly chosen client to form the marginal pair.
		i := rng.Intn(n)
		evals = visit(i, s.With(i), s.Without(i))
	}
}

// Values implements Valuer.
func (a *MCBanzhaf) Values(ctx *Context) (Values, error) {
	o := ctx.Oracle
	n := o.N()
	sums := make(Values, n)
	counts := make([]int, n)
	a.forEachDraw(n, o.Evals(), ctx.RNG, func(i int, with, without combin.Coalition) int {
		d := o.U(with) - o.U(without)
		sums[i] += d
		counts[i]++
		return o.Evals()
	})
	for i := range sums {
		if counts[i] > 0 {
			sums[i] /= float64(counts[i])
		}
	}
	return sums, nil
}
