package shapley

import (
	"fmt"
	"math/rand"

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

// forEachDraw replays the sampler's draw sequence: each iteration draws a
// size, a coalition of that size and its complement, and hands them to
// visit, which evaluates (or, for planning, records) the pair and returns
// the run's distinct-request count — the budget meter that drives the stop
// condition exactly as Source.Evals does. evals seeds the meter (the
// Source's count before the run; 0 for a fresh budget scope).
func (a *CCShapley) forEachDraw(n, evals int, rng *rand.Rand, visit func(k int, s, comp combin.Coalition) int) {
	full := combin.FullCoalition(n)
	for draws := 0; drawAgain(a.Gamma, evals, draws, maxDraws); draws++ {
		k := 1 + rng.Intn(n) // coalition size 1..n
		s := combin.RandomSubsetOfSize(n, k, rng)
		evals = visit(k, s, full.Minus(s))
	}
}

// Values implements Valuer.
func (a *CCShapley) Values(ctx *Context) (Values, error) {
	o := ctx.Oracle
	n := o.N()

	// Cell (i, k) accumulates complementary contributions of client i at
	// stratum k (the size of the coalition containing i).
	acc := newStrataAcc(n)
	var members [combin.MaxPlayers]int
	a.forEachDraw(n, o.Evals(), ctx.RNG, func(k int, s, comp combin.Coalition) int {
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
		return o.Evals()
	})

	return acc.values(nil), nil
}
