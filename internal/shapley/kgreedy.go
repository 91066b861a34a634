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

// Values implements Valuer.
func (a *KGreedy) Values(ctx *Context) (Values, error) {
	o := ctx.Oracle
	n := o.N()
	k := a.K
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	// Evaluate every combination of size <= K (Alg. 2 lines 2-4).
	all := combin.AppendSubsetsUpTo(nil, n, k)
	u := newUtilityTable(len(all))
	for _, s := range all {
		u.put(s, o.U(s))
	}
	// Truncated MC-SV sum over combinations S with |S| < K (lines 6-8):
	// each term pairs S (size < K) with S∪{i} (size <= K), both evaluated.
	phi := make(Values, n)
	for i := 0; i < n; i++ {
		for size := 0; size < k; size++ {
			w := mcWeight(n, size)
			combin.SubsetsOfSizeNotContaining(n, size, i, func(s combin.Coalition) {
				phi[i] += w * (u.at(s.With(i)) - u.at(s))
			})
		}
	}
	return phi, nil
}
