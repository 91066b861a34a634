package shapley

import (
	"fmt"

	"fedshap/internal/combin"
)

// GTB is the paper's "Extended-GTB" baseline: Jia et al.'s Group-Testing-
// Based Shapley estimation extended to FL. It samples coalitions with the
// group-testing size distribution q(k) ∝ 1/(k(n−k)), forms unbiased
// estimates of all pairwise value differences Δᵢⱼ = φᵢ − φⱼ from the shared
// utility measurements, and then recovers φ by solving the feasibility
// problem {Σφᵢ = U(N) − U(∅), |(φᵢ−φⱼ) − Δ̂ᵢⱼ| ≤ ε} with ε relaxed until
// feasible — realised here by the least-squares solution (which minimises
// the maximal violation's ℓ2 proxy) followed by a feasibility check.
type GTB struct {
	// Gamma is the evaluation budget.
	Gamma int
}

// NewGTB returns the baseline with budget γ.
func NewGTB(gamma int) *GTB { return &GTB{Gamma: gamma} }

// Name implements Valuer.
func (a *GTB) Name() string { return fmt.Sprintf("Extended-GTB(γ=%d)", a.Gamma) }

// Values implements Valuer.
func (a *GTB) Values(ctx *Context) (Values, error) {
	o := ctx.Oracle
	n := o.N()
	if n == 1 {
		full := o.U(combin.FullCoalition(1)) - o.U(combin.Empty)
		return Values{full}, nil
	}
	uFull := o.U(combin.FullCoalition(n))
	uEmpty := o.U(combin.Empty)

	zn := 2.0 * harmonic(n-1) // the Z constant of the estimator

	// Group-testing size distribution over k = 1..n-1.
	qk := make([]float64, n) // qk[k], k=1..n-1
	var z float64
	for k := 1; k <= n-1; k++ {
		qk[k] = 1.0 / float64(k*(n-k))
		z += qk[k]
	}
	for k := 1; k <= n-1; k++ {
		qk[k] /= z
	}

	// Sample until the budget is consumed, folding each observation into
	// the per-client weighted indicator sums as it lands:
	// Δ̂ᵢⱼ = (Z/T) Σ_t u_t (β_ti − β_tj) = (Z/T)(cᵢ − cⱼ).
	c := make(Values, n)
	var members [combin.MaxPlayers]int
	draws := 0
	for ; drawAgain(a.Gamma, o.Evals(), draws, maxDraws); draws++ {
		k := sampleSize(qk, ctx.RNG)
		s := combin.RandomSubsetOfSize(n, k, ctx.RNG)
		u := o.U(s)
		for _, i := range s.AppendMembers(members[:0]) {
			c[i] += u
		}
	}
	c.scale(zn / float64(draws))

	// Least-squares feasibility solve: with Δ̂ᵢⱼ = cᵢ − cⱼ exactly
	// antisymmetric, the minimiser of Σᵢⱼ((φᵢ−φⱼ)−Δ̂ᵢⱼ)² subject to
	// Σφ = U(N) − U(∅) is φᵢ = (U(N)−U(∅))/n + cᵢ − mean(c).
	var cbar float64
	for _, x := range c {
		cbar += x
	}
	cbar /= float64(n)
	total := uFull - uEmpty
	phi := make(Values, n)
	for i := range phi {
		phi[i] = total/float64(n) + c[i] - cbar
	}
	return phi, nil
}

func harmonic(n int) float64 {
	var h float64
	for k := 1; k <= n; k++ {
		h += 1.0 / float64(k)
	}
	return h
}

func sampleSize(qk []float64, rng interface{ Float64() float64 }) int {
	r := rng.Float64()
	var cum float64
	for k := 1; k < len(qk); k++ {
		cum += qk[k]
		if r < cum {
			return k
		}
	}
	return len(qk) - 1
}
