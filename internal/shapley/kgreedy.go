package shapley

import (
	"fmt"

	"fedshap/internal/combin"
)

// KGreedy is the probe algorithm of Alg. 2 used to expose the
// key-combinations phenomenon (Sec. IV-A): it exhaustively evaluates every
// dataset combination with at most K clients and computes the truncated
// MC-SV sum over them, deliberately ignoring all larger combinations.
//
// Weight note: the paper's Alg. 2 line 7 prints the divisor n·C(n, |S|); we
// use the MC-SV divisor n·C(n−1, |S|) so that K = n recovers the exact
// Shapley value — the property Fig. 4's relative-error curve measures. See
// ARCHITECTURE.md, Paper experiment map.
type KGreedy struct {
	// K is the maximum combination size evaluated.
	K int
}

// Name implements Valuer.
func (a *KGreedy) Name() string { return fmt.Sprintf("K-Greedy(K=%d)", a.K) }

// coalitions returns K clamped to [1, n] and every combination of at most
// that many clients — all Alg. 2 evaluates (lines 2-4).
func (a *KGreedy) coalitions(n int) (k int, all []combin.Coalition) {
	k = min(max(a.K, 1), n)
	return k, combin.AppendSubsetsUpTo(nil, n, k)
}

// Values implements Valuer: the truncated MC-SV sum over combinations S
// with |S| < K (lines 6-8), each term pairing S with S∪{i} of size ≤ K.
func (a *KGreedy) Values(ctx *Context) (Values, error) {
	n := ctx.Oracle.N()
	k, all := a.coalitions(n)
	u := evaluate(ctx.Oracle, all)
	return truncatedMC(n, k, &u), nil
}
