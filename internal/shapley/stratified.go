package shapley

import (
	"fmt"
	"math/rand"

	"fedshap/internal/combin"
)

// Scheme selects the Shapley computation scheme plugged into the unified
// stratified sampling framework (Alg. 1).
type Scheme int

const (
	// MC pairs a sampled coalition S ∋ i with S\{i} (Def. 3).
	MC Scheme = iota
	// CC pairs a sampled coalition S ∋ i with N\S (Def. 4).
	CC
)

// String returns the paper's abbreviation for the scheme.
func (s Scheme) String() string {
	switch s {
	case MC:
		return "MC-SV"
	case CC:
		return "CC-SV"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Stratified is the unified stratified sampling framework of Alg. 1: dataset
// combinations of equal size form strata; m_k combinations are sampled per
// stratum; each client's stratified value φ̂ᵢ,ₖ averages the marginal (MC)
// or complementary (CC) contributions whose paired combination was also
// sampled; and φ̂ᵢ averages across strata.
type Stratified struct {
	// Scheme selects MC-SV or CC-SV pairing.
	Scheme Scheme
	// RoundsPerStratum holds m_k for stratum k (index 0 = combinations of
	// size 1, as Alg. 1 iterates k = 1..n). When nil, TotalRounds is split
	// evenly across strata.
	RoundsPerStratum []int
	// TotalRounds is the sampling budget γ used when RoundsPerStratum is
	// nil.
	TotalRounds int
	// ForcePairs, when true, evaluates each sampled coalition's pair
	// (S\{i} for MC, N\S for CC) even when it was not itself sampled, so
	// no stratum degenerates to zero from pairing sparsity. This doubles
	// the evaluation cost per sample but removes the estimator's
	// conditional-on-pairing bias — a design study on Alg. 1, not part of
	// the paper (which counts only pairs that happen to be sampled).
	ForcePairs bool
}

// NewStratified builds the framework with budget γ split evenly over strata.
func NewStratified(scheme Scheme, gamma int) *Stratified {
	return &Stratified{Scheme: scheme, TotalRounds: gamma}
}

// Name implements Valuer.
func (a *Stratified) Name() string {
	return fmt.Sprintf("Stratified(%s)", a.Scheme)
}

// rounds returns m_k for k = 1..n (index k-1), materialising the even split
// when RoundsPerStratum is unset. The remainder of an uneven division is
// given to the smallest strata first, which is where contributions matter
// most (the key-combinations phenomenon).
func (a *Stratified) rounds(n int) []int {
	if a.RoundsPerStratum != nil {
		if len(a.RoundsPerStratum) != n {
			panic(fmt.Sprintf("shapley: RoundsPerStratum has %d entries for n=%d", len(a.RoundsPerStratum), n))
		}
		return a.RoundsPerStratum
	}
	m := make([]int, n)
	if a.TotalRounds <= 0 {
		return m
	}
	base, rem := a.TotalRounds/n, a.TotalRounds%n
	for k := range m {
		m[k] = base
		if k < rem {
			m[k]++
		}
	}
	return m
}

// draw replays Alg. 1's per-stratum sampling (lines 1-8), consuming rng
// exactly as the valuation pass does; strata[k] holds the sampled
// coalitions of size k. Both Values and SamplePlan consume it.
func (a *Stratified) draw(n int, rng *rand.Rand) [][]combin.Coalition {
	m := a.rounds(n)
	strata := make([][]combin.Coalition, n+1)
	for k := 1; k <= n; k++ {
		mk := m[k-1]
		if mk <= 0 {
			continue
		}
		strata[k] = combin.SampleStratumWithoutReplacement(n, k, mk, rng)
	}
	return strata
}

// sampledSet indexes the drawn coalitions — plus ∅, whose utility anchors
// size-1 marginals (Example 2) — for the pairing test of lines 9-17.
func sampledSet(strata [][]combin.Coalition) *combin.Set {
	total := 1
	for _, ss := range strata {
		total += len(ss)
	}
	sampled := combin.NewSet(total)
	sampled.Add(combin.Empty)
	for _, ss := range strata {
		for _, c := range ss {
			sampled.Add(c)
		}
	}
	return sampled
}

// forEachPair invokes fn for every (S, pair) term the reduce pass of
// lines 9-17 evaluates, in evaluation order (client-major, then stratum,
// then sample). Terms whose pair was not sampled are skipped unless
// ForcePairs evaluates them anyway.
func (a *Stratified) forEachPair(n int, strata [][]combin.Coalition, sampled *combin.Set, fn func(i, k int, s, pair combin.Coalition)) {
	full := combin.FullCoalition(n)
	for i := 0; i < n; i++ {
		for k := 1; k <= n; k++ {
			for _, s := range strata[k] {
				if !s.Has(i) {
					continue
				}
				var pair combin.Coalition
				switch a.Scheme {
				case MC:
					pair = s.Without(i)
				case CC:
					pair = full.Minus(s)
				}
				if !a.ForcePairs && !sampled.Has(pair) {
					continue
				}
				fn(i, k, s, pair)
			}
		}
	}
}

// Values implements Valuer, following Alg. 1 line by line.
func (a *Stratified) Values(ctx *Context) (Values, error) {
	o := ctx.Oracle
	n := o.N()

	// Lines 1-8: sample each stratum and evaluate sampled coalitions.
	strata := a.draw(n, ctx.RNG)
	for k := 1; k <= n; k++ {
		for _, c := range strata[k] {
			o.U(c)
		}
	}
	o.U(combin.Empty)
	sampled := sampledSet(strata)

	// Lines 9-17: pair sampled combinations per scheme and average.
	acc := newStrataAcc(n)
	a.forEachPair(n, strata, sampled, func(i, k int, s, pair combin.Coalition) {
		acc.add(i, k, o.U(s)-o.U(pair))
	})
	return acc.values(nil), nil
}
