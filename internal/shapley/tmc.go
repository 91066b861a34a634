package shapley

import (
	"fmt"
	"math"

	"fedshap/internal/combin"
)

// TMC is the paper's "Extended-TMC" baseline: Ghorbani & Zou's Truncated
// Monte Carlo data-Shapley extended to FL. It samples random permutations of
// the clients, walks each permutation accumulating marginal contributions,
// and truncates the walk once the running utility is within Tolerance of
// the grand-coalition utility (remaining marginals are taken as zero).
// Sampling stops when the oracle has consumed the evaluation budget γ.
type TMC struct {
	// Gamma is the evaluation budget (distinct coalition evaluations).
	Gamma int
	// Tolerance is the truncation threshold as a fraction of |U(N)|;
	// the conventional 0.01 is used when zero.
	Tolerance float64
	// MaxPermutations bounds the number of sampled permutations
	// independently of the budget (0 = no bound).
	MaxPermutations int
}

// NewTMC returns the baseline with budget γ and default truncation.
func NewTMC(gamma int) *TMC { return &TMC{Gamma: gamma} }

// Name implements Valuer.
func (a *TMC) Name() string { return fmt.Sprintf("Extended-TMC(γ=%d)", a.Gamma) }

// Values implements Valuer.
func (a *TMC) Values(ctx *Context) (Values, error) {
	o := ctx.Oracle
	n := o.N()
	tol := a.Tolerance
	if tol <= 0 {
		tol = 0.01
	}
	uFull := o.U(combin.FullCoalition(n))
	uEmpty := o.U(combin.Empty)
	thresh := tol * math.Abs(uFull)

	sums := make(Values, n)
	var perm []int
	perms := 0
	budget := func() bool { return a.Gamma <= 0 || o.Evals() < a.Gamma }

	for budget() {
		if a.MaxPermutations > 0 && perms >= a.MaxPermutations {
			break
		}
		perm = combin.PermInto(ctx.RNG, n, perm)
		var s combin.Coalition
		prev := uEmpty
		truncated := false
		for _, i := range perm {
			s = s.With(i)
			if truncated || !budget() && !o.Cached(s) {
				// Truncation: remaining marginals contribute zero.
				continue
			}
			cur := o.U(s)
			sums[i] += cur - prev
			prev = cur
			if math.Abs(uFull-cur) < thresh {
				truncated = true
			}
		}
		perms++
		if perms >= maxDraws {
			break
		}
	}
	if perms == 0 {
		return make(Values, n), nil
	}
	sums.scale(1.0 / float64(perms))
	return sums, nil
}
