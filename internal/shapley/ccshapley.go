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
	draws := 0
	for evals < a.Gamma || draws == 0 {
		k := 1 + rng.Intn(n) // coalition size 1..n
		s := combin.RandomSubsetOfSize(n, k, rng)
		evals = visit(k, s, full.Minus(s))
		draws++
		if draws >= 1<<20 || a.Gamma <= 0 {
			break
		}
	}
}

// Values implements Valuer.
func (a *CCShapley) Values(ctx *Context) (Values, error) {
	o := ctx.Oracle
	n := o.N()

	// sums[i][k] accumulates complementary contributions of client i at
	// stratum k (coalition size containing i); counts track sample counts.
	sums := make([][]float64, n)
	counts := make([][]int, n)
	for i := range sums {
		sums[i] = make([]float64, n+1)
		counts[i] = make([]int, n+1)
	}

	var members [combin.MaxPlayers]int
	a.forEachDraw(n, o.Evals(), ctx.RNG, func(k int, s, comp combin.Coalition) int {
		us := o.U(s)
		uc := o.U(comp)
		cc := us - uc
		for _, i := range s.AppendMembers(members[:0]) {
			sums[i][k] += cc
			counts[i][k]++
		}
		ck := n - k
		if ck > 0 {
			for _, i := range comp.AppendMembers(members[:0]) {
				sums[i][ck] += -cc
				counts[i][ck]++
			}
		}
		return o.Evals()
	})

	phi := make(Values, n)
	for i := 0; i < n; i++ {
		var total float64
		for k := 1; k <= n; k++ {
			if counts[i][k] > 0 {
				total += sums[i][k] / float64(counts[i][k])
			}
		}
		phi[i] = total / float64(n)
	}
	return phi, nil
}
