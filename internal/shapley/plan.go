package shapley

import (
	"math/rand"

	"fedshap/internal/combin"
)

// Evaluation planning: every sampler in this package draws its coalitions
// deterministically from its seed, so the sequence of oracle requests a run
// will make can be replayed *without* training anything. The replayed plan
// streams through a bounded evaluation pool (utility.Oracle.Prefetch /
// EvalBatch) and the unchanged sequential pass then reduces against a warm
// cache — bit-identical values, identical budget accounting, wall-clock
// divided by the worker count.
//
// Every plannable algorithm implements Planner. The exact schemes, K-Greedy
// and leave-one-out have a seed-free evaluation set and ignore the seed; the
// samplers replay their seeded draws, so the full evaluation sequence is
// known upfront. Control flow may depend on the running count of *distinct*
// coalitions requested (the budget meter γ), which the replay simulates; it
// may not depend on utility values. TMC (truncation compares utilities) and
// Stratified-Neyman (phase-two allocation uses observed variances)
// therefore return only the certain prefix of their sequence; the
// sequential pass evaluates the utility-dependent remainder lazily.
//
// The simulated budget meter matches utility.RunView (and a fresh Oracle)
// exactly: each distinct coalition requested by the run counts once,
// whether the shared cache underneath is warm or cold. Plans are therefore
// computed for a fresh budget scope; running an algorithm against an
// already-charged raw Source remains supported but is not what plans
// describe.

// Planner is implemented by algorithms whose oracle requests are known
// before any utility is. SamplePlan returns, in first-request order, the
// distinct coalitions a run with the given seed will ask the oracle for —
// the full sequence when control flow is utility-independent, or a certain
// prefix when later draws depend on observed utilities. The seed must be
// the one the run's Context was built with (shapley.NewContext(o, seed));
// algorithms that draw nothing ignore it.
type Planner interface {
	SamplePlan(n int, seed int64) []combin.Coalition
}

// PlanFor returns the deterministic evaluation plan of alg for a federation
// of n clients and a run seeded with seed. ok is false when the algorithm
// exposes no plan at all (the gradient-based baselines, which evaluate
// reconstructed games on oracles of their own, not on the run's Source).
func PlanFor(alg Valuer, n int, seed int64) (plan []combin.Coalition, ok bool) {
	if p, ok := alg.(Planner); ok {
		return p.SamplePlan(n, seed), true
	}
	return nil, false
}

// planRNG builds the RNG a run's Context starts from, so a replay consumes
// the exact same stream.
func planRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// planRecorder simulates a fresh budget scope: it records every requested
// coalition once, in first-request order, and reports the distinct count —
// the same meter a budget-gated sampler reads via Source.Evals against a
// fresh oracle or a utility.RunView. The set's insertion order is the plan.
type planRecorder struct{ *combin.Set }

// maxPlanHint caps what a recorder reserves up front. γ arrives in job
// requests and may exceed anything a run can reach (2ⁿ distinct coalitions,
// 2²⁰ draws); past the cap the recorder grows as it fills.
const maxPlanHint = 1 << 16

// newPlanRecorder sizes the recorder for a run expected to make about
// hint distinct requests (γ, for a budget-gated sampler).
func newPlanRecorder(hint int) planRecorder {
	return planRecorder{combin.NewSet(min(max(hint, 0), maxPlanHint))}
}

// visit records one oracle request and returns the distinct-request count.
func (r planRecorder) visit(s combin.Coalition) int {
	r.Add(s)
	return r.Len()
}

// SamplePlan implements Planner: the certain strata plus the replayed
// balanced sample of the k*+1 stratum — IPSS's complete evaluation set.
func (a *IPSS) SamplePlan(n int, seed int64) []combin.Coalition {
	_, strata, pset := a.samplePlan(n, planRNG(seed))
	rec := newPlanRecorder(len(strata) + len(pset))
	for _, s := range strata {
		rec.visit(s)
	}
	for _, s := range pset {
		rec.visit(s)
	}
	return rec.Keys()
}

// SamplePlan implements Planner: every coalition of size ≤ K (Alg. 2
// evaluates all of them), whatever the seed.
func (a *KGreedy) SamplePlan(n int, _ int64) []combin.Coalition {
	_, all := a.coalitions(n)
	return all
}

// SamplePlan implements Planner: all 2ⁿ coalitions, whatever the seed.
func (ExactMC) SamplePlan(n int, _ int64) []combin.Coalition {
	out := make([]combin.Coalition, 0, 1<<uint(n))
	combin.AllSubsets(n, func(s combin.Coalition) { out = append(out, s) })
	return out
}

// SamplePlan implements Planner: all 2ⁿ coalitions.
func (ExactCC) SamplePlan(n int, seed int64) []combin.Coalition {
	return ExactMC{}.SamplePlan(n, seed)
}

// SamplePlan implements Planner: all 2ⁿ coalitions.
func (ExactPerm) SamplePlan(n int, seed int64) []combin.Coalition {
	return ExactMC{}.SamplePlan(n, seed)
}

// SamplePlan implements Planner: all 2ⁿ coalitions (Banzhaf enumerates them
// too).
func (ExactBanzhaf) SamplePlan(n int, seed int64) []combin.Coalition {
	return ExactMC{}.SamplePlan(n, seed)
}

// SamplePlan implements Planner: the grand coalition and every
// leave-one-out coalition, in evaluation order.
func (LeaveOneOut) SamplePlan(n int, _ int64) []combin.Coalition {
	full := combin.FullCoalition(n)
	out := make([]combin.Coalition, 0, n+1)
	out = append(out, full)
	for i := 0; i < n; i++ {
		out = append(out, full.Without(i))
	}
	return out
}

// SamplePlan implements Planner by replaying Alg. 1's stratum sampling and
// the pairing pass — Stratified's complete evaluation set.
func (a *Stratified) SamplePlan(n int, seed int64) []combin.Coalition {
	strata := a.draw(n, planRNG(seed))
	sampled := sampledSet(strata)
	rec := newPlanRecorder(sampled.Len())
	for k := 1; k <= n; k++ {
		for _, s := range strata[k] {
			rec.visit(s)
		}
	}
	rec.visit(combin.Empty)
	a.forEachPair(n, strata, sampled, func(i, k int, s, pair combin.Coalition) {
		rec.visit(s)
		rec.visit(pair)
	})
	return rec.Keys()
}

// SamplePlan implements Planner: the uniform pilot phase is replayed in
// full; the Neyman-allocated second phase depends on observed variances and
// is left to the sequential pass.
func (a *StratifiedNeyman) SamplePlan(n int, seed int64) []combin.Coalition {
	_, _, pilot := a.sampleCounts(n)
	rng := planRNG(seed)
	rec := newPlanRecorder(2 * pilot)
	for t := 0; t < pilot; t++ {
		k := 1 + t%n
		s, i := neymanDraw(n, k, rng)
		rec.visit(s)
		rec.visit(s.Without(i))
	}
	return rec.Keys()
}

// SamplePlan implements Planner: U(N), U(∅) and the first prefix of the
// first permutation are certain; everything after depends on the truncation
// comparisons against observed utilities and is left to the sequential pass.
func (a *TMC) SamplePlan(n int, seed int64) []combin.Coalition {
	rec := newPlanRecorder(3)
	rec.visit(combin.FullCoalition(n))
	evals := rec.visit(combin.Empty)
	if a.Gamma > 0 && evals >= a.Gamma {
		return rec.Keys() // budget exhausted before any permutation
	}
	perm := combin.RandomPermutation(n, planRNG(seed))
	rec.visit(combin.NewCoalition(perm[0]))
	return rec.Keys()
}

// SamplePlan implements Planner by replaying the draw loop — CC-Shapley's
// complete evaluation set.
func (a *CCShapley) SamplePlan(n int, seed int64) []combin.Coalition {
	rec := newPlanRecorder(a.Gamma + 1) // the last draw may add two past γ−1
	a.forEachDraw(n, 0, planRNG(seed), func(k int, s, comp combin.Coalition) int {
		rec.visit(s)
		return rec.visit(comp)
	})
	return rec.Keys()
}

// SamplePlan implements Planner by replaying the group-testing draw loop —
// Extended-GTB's complete evaluation set.
func (a *GTB) SamplePlan(n int, seed int64) []combin.Coalition {
	rec := newPlanRecorder(a.Gamma)
	rec.visit(combin.FullCoalition(n))
	evals := rec.visit(combin.Empty)
	if n == 1 {
		return rec.Keys()
	}
	a.forEachDraw(n, evals, planRNG(seed), func(s combin.Coalition) int {
		return rec.visit(s)
	})
	return rec.Keys()
}

// SamplePlan implements Planner by replaying the Monte-Carlo toggle draws —
// MC-Banzhaf's complete evaluation set.
func (a *MCBanzhaf) SamplePlan(n int, seed int64) []combin.Coalition {
	rec := newPlanRecorder(a.Gamma + 1) // the last draw may add two past γ−1
	a.forEachDraw(n, 0, planRNG(seed), func(i int, with, without combin.Coalition) int {
		rec.visit(with)
		return rec.visit(without)
	})
	return rec.Keys()
}

// SamplePlan implements Planner by replaying the permutation walks —
// Perm-MC's complete evaluation set.
func (a *PermSampling) SamplePlan(n int, seed int64) []combin.Coalition {
	rec := newPlanRecorder(a.Gamma + n) // the last walk may add n past γ−1
	evals := rec.visit(combin.Empty)
	// The run's own walk, against a recorder that answers 0 for every prefix.
	record := func(s combin.Coalition) float64 { rec.visit(s); return 0 }
	scratch := make(Values, n)
	a.forEachPerm(n, evals, planRNG(seed), func(perm []int) int {
		walkPerm(scratch, perm, 0, record)
		return rec.Len()
	})
	return rec.Keys()
}
