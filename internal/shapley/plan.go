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
// Every plannable algorithm implements Planner, in one of three ways. The
// set-first algorithms (the exact schemes, K-Greedy, IPSS) compute their
// evaluation set with a helper their Values calls too and return it. The
// draw-loop samplers are dry-run: their own Values runs once against a
// recorder that answers 0 for every coalition (dryRun). That is sound
// because their control flow depends only on the seed and the running count
// of *distinct* coalitions requested (the budget meter γ), never on a
// utility value; plan_test.go checks each plan against a run on irregular
// utilities. TMC (truncation compares utilities) and Stratified-Neyman
// (phase-two allocation uses observed variances) do read utilities, so
// they return only the certain prefix of their sequence; the sequential
// pass evaluates the utility-dependent remainder lazily.
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
// As a utility.Source it answers 0 for every coalition.
type planRecorder struct {
	*combin.Set
	n int
}

func (r planRecorder) N() int                         { return r.n }
func (r planRecorder) U(s combin.Coalition) float64   { r.Add(s); return 0 }
func (r planRecorder) Cached(s combin.Coalition) bool { return r.Has(s) }
func (r planRecorder) Evals() int                     { return r.Len() }

// maxPlanHint caps what a recorder reserves up front. γ arrives in job
// requests and may exceed anything a run can reach (2ⁿ distinct coalitions,
// 2²⁰ draws); past the cap the recorder grows as it fills.
const maxPlanHint = 1 << 16

// newPlanRecorder sizes the recorder for a run over n clients expected to
// make about hint distinct requests (γ, for a budget-gated sampler).
func newPlanRecorder(n, hint int) planRecorder {
	return planRecorder{combin.NewSet(min(max(hint, 0), maxPlanHint)), n}
}

// dryRun plans a draw-loop sampler: it runs alg's own Values once, seeded
// as the real run will be, against a recorder in a fresh budget scope, and
// returns the distinct requests in first-request order. hint presizes the
// recorder: γ + n for a budget loop, since a draw starts while fewer than γ
// coalitions were requested and adds at most n (a permutation walk's n
// prefixes). A recorder sized too small still plans right, but grows.
func dryRun(alg Valuer, n int, seed int64, hint int) []combin.Coalition {
	rec := newPlanRecorder(n, hint)
	_, _ = alg.Values(NewContext(rec, seed)) // a dry-run sampler returns no error
	return rec.Keys()
}

// SamplePlan implements Planner: the certain strata plus the replayed
// balanced sample of the k*+1 stratum — IPSS's complete evaluation set.
// IPSS is set-first: Values evaluates what samplePlan returns, so there is
// no loop to replay, and a dry run would build its utility table a second
// time (+0.23 MB per plan at n = 24, γ = 6000: +3.0 % of the benchmark's
// sampler-free alloc_mb_per_op).
func (a *IPSS) SamplePlan(n int, seed int64) []combin.Coalition {
	_, strata, pset := a.samplePlan(n, planRNG(seed))
	rec := newPlanRecorder(n, len(strata)+len(pset))
	for _, s := range strata {
		rec.Add(s)
	}
	for _, s := range pset {
		rec.Add(s)
	}
	return rec.Keys()
}

// SamplePlan implements Planner: every coalition of size ≤ K (Alg. 2
// evaluates all of them), whatever the seed. Set-first, as is IPSS.
func (a *KGreedy) SamplePlan(n int, _ int64) []combin.Coalition {
	_, all := a.coalitions(n)
	return all
}

// SamplePlan implements Planner: all 2ⁿ coalitions, whatever the seed.
// The exact schemes are set-first: a dry run of ExactPerm would repeat its
// n!·n walk to learn what this enumerates.
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

// SamplePlan implements Planner: the uniform pilot phase is replayed in
// full; the Neyman-allocated second phase depends on observed variances and
// is left to the sequential pass.
func (a *StratifiedNeyman) SamplePlan(n int, seed int64) []combin.Coalition {
	_, _, pilot := a.sampleCounts(n)
	rng := planRNG(seed)
	rec := newPlanRecorder(n, 2*pilot)
	for t := 0; t < pilot; t++ {
		k := 1 + t%n
		s, i := neymanDraw(n, k, rng)
		rec.Add(s)
		rec.Add(s.Without(i))
	}
	return rec.Keys()
}

// SamplePlan implements Planner: U(N), U(∅) and the first prefix of the
// first permutation are certain; everything after depends on the truncation
// comparisons against observed utilities and is left to the sequential pass.
func (a *TMC) SamplePlan(n int, seed int64) []combin.Coalition {
	rec := newPlanRecorder(n, 3)
	rec.Add(combin.FullCoalition(n))
	rec.Add(combin.Empty)
	if a.Gamma > 0 && rec.Len() >= a.Gamma {
		return rec.Keys() // budget exhausted before any permutation
	}
	perm := combin.RandomPermutation(n, planRNG(seed))
	rec.Add(combin.NewCoalition(perm[0]))
	return rec.Keys()
}

// The draw-loop samplers are planned by a dry run of their Values.

// SamplePlan implements Planner: U(N) and every U(N∖{i}).
func (LeaveOneOut) SamplePlan(n int, _ int64) []combin.Coalition {
	return dryRun(LeaveOneOut{}, n, 0, n+1)
}

// SamplePlan implements Planner: Alg. 1's stratum samples, ∅ and the pairs.
func (a *Stratified) SamplePlan(n int, seed int64) []combin.Coalition {
	return dryRun(a, n, seed, a.TotalRounds+1)
}

// SamplePlan implements Planner: every draw's coalition and complement.
func (a *CCShapley) SamplePlan(n int, seed int64) []combin.Coalition {
	return dryRun(a, n, seed, a.Gamma+n)
}

// SamplePlan implements Planner: U(N), U(∅) and every group-testing draw.
func (a *GTB) SamplePlan(n int, seed int64) []combin.Coalition {
	return dryRun(a, n, seed, a.Gamma+n)
}

// SamplePlan implements Planner: every draw's toggle pair.
func (a *MCBanzhaf) SamplePlan(n int, seed int64) []combin.Coalition {
	return dryRun(a, n, seed, a.Gamma+n)
}

// SamplePlan implements Planner: U(∅) and every walk's prefixes.
func (a *PermSampling) SamplePlan(n int, seed int64) []combin.Coalition {
	return dryRun(a, n, seed, a.Gamma+n)
}
