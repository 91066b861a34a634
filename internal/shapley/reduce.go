package shapley

import (
	"fedshap/internal/combin"
	"fedshap/internal/utility"
)

// The paper's unified framework makes every estimator here one formula,
// φ̂ᵢ = (1/n)·Σₖ (mean marginal of client i over stratum k), with different
// strata kept. This file holds each piece of that arithmetic once; the
// algorithms differ in what they draw and which piece they hand it to.
// The order of every addition below is pinned by the golden hashes
// (golden_test.go, golden_exact_test.go).

// mcWeight returns the MC-SV weight 1/(n·C(n-1, |S|)) for a coalition of
// size s not containing the target client.
func mcWeight(n, s int) float64 {
	return 1.0 / (float64(n) * combin.Binomial(n-1, s))
}

// denseTable evaluates every coalition through eval and returns the
// bitmask-indexed utility array the exact schemes reduce.
func denseTable(n int, eval func(combin.Coalition) float64) []float64 {
	u := make([]float64, 1<<uint(n))
	combin.AllSubsets(n, func(s combin.Coalition) {
		u[s.Index()] = eval(s)
	})
	return u
}

// exactMC is Def. 3 over a dense table:
// φᵢ = Σ_{S ⊆ N\{i}} [u(S∪{i}) − u(S)] / (n · C(n−1, |S|)).
func exactMC(n int, u []float64) Values {
	phi := make(Values, n)
	combin.AllSubsets(n, func(s combin.Coalition) {
		us := u[s.Index()]
		w := mcWeight(n, s.Size())
		for i := 0; i < n; i++ {
			if !s.Has(i) {
				phi[i] += w * (u[s.With(i).Index()] - us)
			}
		}
	})
	return phi
}

// utilityTable holds the utilities one run evaluated, keyed by coalition: a
// combin.Set for the key → dense index step and a slice for the values.
type utilityTable struct {
	index *combin.Set
	vals  []float64
}

func newUtilityTable(capacity int) utilityTable {
	return utilityTable{index: combin.NewSet(capacity), vals: make([]float64, 0, capacity)}
}

// evaluate requests every listed coalition from o, in order, and tables the
// answers.
func evaluate(o utility.Source, lists ...[]combin.Coalition) utilityTable {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	t := newUtilityTable(total)
	for _, l := range lists {
		for _, s := range l {
			t.put(s, o.U(s))
		}
	}
	return t
}

// put records s → v and reports whether s was new; a coalition recorded
// twice keeps its first value (utilities are deterministic, so the two
// agree).
func (t *utilityTable) put(s combin.Coalition, v float64) bool {
	_, added := t.index.Add(s)
	if added {
		t.vals = append(t.vals, v)
	}
	return added
}

// get returns the utility recorded for s, if any.
func (t *utilityTable) get(s combin.Coalition) (float64, bool) {
	j := t.index.Find(s)
	if j < 0 {
		return 0, false
	}
	return t.vals[j], true
}

// at returns the utility recorded for s. Asking for a coalition the run did
// not evaluate is a bug in the estimator's stratum arithmetic and panics.
func (t *utilityTable) at(s combin.Coalition) float64 { return t.vals[t.index.Find(s)] }

// truncatedMC is the MC-SV sum over the fully evaluated strata only (Alg. 2
// lines 6-8, Alg. 3 lines 15-17): every S ⊆ N\{i} with |S| < below, so
// that both S and S∪{i} — of size ≤ below — are in u.
func truncatedMC(n, below int, u *utilityTable) Values {
	phi := make(Values, n)
	for i := 0; i < n; i++ {
		for size := 0; size < below; size++ {
			w := mcWeight(n, size)
			combin.SubsetsOfSizeNotContaining(n, size, i, func(s combin.Coalition) {
				phi[i] += w * (u.at(s.With(i)) - u.at(s))
			})
		}
	}
	return phi
}

// strataAcc accumulates sampled contributions per (client, stratum) cell,
// strata indexed 1..n by the size of the coalition containing the client.
type strataAcc struct {
	n      int
	sums   []float64 // indexed by cell
	counts []int
}

// cell returns the index of client i's stratum k.
func (a *strataAcc) cell(i, k int) int { return i*(a.n+1) + k }

func newStrataAcc(n int) *strataAcc {
	return &strataAcc{n: n, sums: make([]float64, n*(n+1)), counts: make([]int, n*(n+1))}
}

func (a *strataAcc) add(i, k int, d float64) {
	j := a.cell(i, k)
	a.sums[j] += d
	a.counts[j]++
}

// pooled returns stratum k's sum and count across all clients.
func (a *strataAcc) pooled(k int) (sum float64, count int) {
	for j := k; j < len(a.sums); j += a.n + 1 {
		sum += a.sums[j]
		count += a.counts[j]
	}
	return sum, count
}

// values is the framework's fold, φ̂ᵢ = (1/n)·Σₖ mean of cell (i, k). An
// empty cell contributes fallback[k], or nothing when fallback is nil.
func (a *strataAcc) values(fallback []float64) Values {
	n := a.n
	phi := make(Values, n)
	for i := 0; i < n; i++ {
		var total float64
		for k := 1; k <= n; k++ {
			if j := a.cell(i, k); a.counts[j] > 0 {
				total += a.sums[j] / float64(a.counts[j])
			} else if fallback != nil {
				total += fallback[k]
			}
		}
		phi[i] = total / float64(n)
	}
	return phi
}

// maxDraws is the safety valve of every budget-gated draw loop: a budget no
// sequence of draws can reach (γ > 2ⁿ) still terminates.
const maxDraws = 1 << 20

// drawAgain is the stop rule the budget-gated samplers share: draw until
// the run's distinct-request count evals reaches γ — at least once, at most
// limit times, and exactly once when γ ≤ 0 (no budget to draw against).
func drawAgain(gamma, evals, draws, limit int) bool {
	if draws == 0 {
		return true
	}
	return draws < limit && gamma > 0 && evals < gamma
}

// walkPerm adds to sums the marginal contributions along one client
// ordering: perm[j] receives u(prefix_j) − u(prefix_{j−1}), where prefix_j
// is the first j+1 clients and prefix_{−1} = ∅ has utility uEmpty.
func walkPerm(sums Values, perm []int, uEmpty float64, u func(combin.Coalition) float64) {
	var s combin.Coalition
	prev := uEmpty
	for _, i := range perm {
		s = s.With(i)
		cur := u(s)
		sums[i] += cur - prev
		prev = cur
	}
}

// scale multiplies every value by f.
func (v Values) scale(f float64) {
	for i := range v {
		v[i] *= f
	}
}
