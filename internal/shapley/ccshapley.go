package shapley

import (
	"fmt"

	"fedshap/internal/combin"
)

// CCShapley is the paper's "CC-Shapley" baseline: Zhang et al.'s
// complementary-contribution sampling (SIGMOD 2023). Each draw evaluates a
// coalition S and its complement N\S; the single complementary contribution
// U(S) − U(N\S) simultaneously informs every member of S (at stratum |S|)
// and, negated, every member of N\S (at stratum n−|S|) — the scheme's
// sample-efficiency trick. Values average per-stratum means, as in CC-SV.
type CCShapley struct {
	// Gamma is the evaluation budget (each draw costs up to two
	// evaluations).
	Gamma int
}

// NewCCShapley returns the baseline with budget γ.
func NewCCShapley(gamma int) *CCShapley { return &CCShapley{Gamma: gamma} }

// Name implements Valuer.
func (a *CCShapley) Name() string { return fmt.Sprintf("CC-Shapley(γ=%d)", a.Gamma) }

// Values implements Valuer.
func (a *CCShapley) Values(ctx *Context) (Values, error) {
	o := ctx.Oracle
	n := o.N()

	// Cell (i, k) accumulates complementary contributions of client i at
	// stratum k (the size of the coalition containing i).
	acc := newStrataAcc(n)
	var members [combin.MaxPlayers]int
	full := combin.FullCoalition(n)
	for draws := 0; drawAgain(a.Gamma, o.Evals(), draws, maxDraws); draws++ {
		k := 1 + ctx.RNG.Intn(n) // coalition size 1..n
		s := combin.RandomSubsetOfSize(n, k, ctx.RNG)
		comp := full.Minus(s)
		us := o.U(s)
		uc := o.U(comp)
		cc := us - uc
		for _, i := range s.AppendMembers(members[:0]) {
			acc.add(i, k, cc)
		}
		ck := n - k
		if ck > 0 {
			for _, i := range comp.AppendMembers(members[:0]) {
				acc.add(i, ck, -cc)
			}
		}
	}

	return acc.values(nil), nil
}
