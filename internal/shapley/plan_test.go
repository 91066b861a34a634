package shapley

import (
	"math"
	"runtime/debug"
	"testing"

	"fedshap/internal/combin"
)

// recordingSource is a synthetic utility Source that records the distinct
// coalitions a run requests, in first-request order — the sequence a
// SamplePlan must reproduce. Utilities vary irregularly with the coalition
// so value-dependent control flow (TMC truncation) is exercised.
type recordingSource struct {
	n        int
	seen     map[combin.Coalition]int
	requests []combin.Coalition
}

func newRecordingSource(n int) *recordingSource {
	return &recordingSource{n: n, seen: make(map[combin.Coalition]int)}
}

func (r *recordingSource) N() int { return r.n }

func (r *recordingSource) U(s combin.Coalition) float64 {
	if _, ok := r.seen[s]; !ok {
		r.seen[s] = len(r.requests)
		r.requests = append(r.requests, s)
	}
	// Deterministic, irregular, size-correlated utility.
	return float64(s.Size())/float64(r.n) + 0.1*math.Sin(float64(s.Index()))
}

func (r *recordingSource) Cached(s combin.Coalition) bool {
	_, ok := r.seen[s]
	return ok
}

func (r *recordingSource) Evals() int { return len(r.requests) }

// planners lists every Planner with the plan kind it promises: exact plans
// reproduce the full request sequence, prefix plans a certain prefix of it.
// The draw-loop samplers among them are planned by a dry run that answers 0
// for every coalition, so comparing with a run on irregular utilities is
// what shows their requests do not depend on a utility.
func planners(gamma int) []struct {
	alg   Valuer
	exact bool
} {
	return []struct {
		alg   Valuer
		exact bool
	}{
		{NewIPSS(gamma), true},
		{&IPSS{Gamma: gamma, RescaleSampledStratum: true}, true},
		{&IPSS{Gamma: gamma, UnbalancedP: true}, true},
		{NewStratified(MC, gamma), true},
		{NewStratified(CC, gamma), true},
		{&Stratified{Scheme: MC, TotalRounds: gamma, ForcePairs: true}, true},
		{NewCCShapley(gamma), true},
		{NewGTB(gamma), true},
		{NewMCBanzhaf(gamma), true},
		{NewPermSampling(gamma), true},
		{NewStratifiedNeyman(gamma), false},
		{NewTMC(gamma), false},
		{LeaveOneOut{}, true},
		{&KGreedy{K: 2}, true},
		{ExactMC{}, true},
	}
}

// TestSamplePlanMatchesRun is the anti-drift contract: for every Planner,
// SamplePlan(n, seed) must equal the distinct-request sequence of a real
// run with the same seed (or, for utility-dependent samplers, a prefix of
// it). A plan that requests anything the run would not request would
// inflate the fresh-evaluation count under parallel prefetching.
func TestSamplePlanMatchesRun(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, gamma := range []int{1, 2, 7, 40} {
				if gamma > 1<<n {
					// A budget no run can consume makes every sampler spin
					// to its 2²⁰-draw safety valve — pointless here.
					continue
				}
				for _, tc := range planners(gamma) {
					p, ok := tc.alg.(Planner)
					if !ok {
						t.Fatalf("%s does not implement Planner", tc.alg.Name())
					}
					plan := p.SamplePlan(n, seed)
					src := newRecordingSource(n)
					ctx := NewContext(src, seed)
					if _, err := tc.alg.Values(ctx); err != nil {
						t.Fatalf("%s n=%d: %v", tc.alg.Name(), n, err)
					}
					if tc.exact && len(plan) != len(src.requests) {
						t.Errorf("%s n=%d seed=%d γ=%d: plan has %d coalitions, run requested %d",
							tc.alg.Name(), n, seed, gamma, len(plan), len(src.requests))
					}
					if len(plan) > len(src.requests) {
						t.Fatalf("%s n=%d seed=%d γ=%d: plan (%d) longer than request sequence (%d)",
							tc.alg.Name(), n, seed, gamma, len(plan), len(src.requests))
					}
					for i, s := range plan {
						if src.requests[i] != s {
							t.Fatalf("%s n=%d seed=%d γ=%d: plan[%d]=%s but run requested %s",
								tc.alg.Name(), n, seed, gamma, i, s, src.requests[i])
						}
					}
				}
			}
		}
	}
}

// TestPlanForDispatch checks that PlanFor answers with the algorithm's
// SamplePlan — seeded for the samplers, seed-free for the enumerating
// schemes — and the no-plan fallback.
func TestPlanForDispatch(t *testing.T) {
	// IPSS's plan is the seeded one: the certain strata plus the sampled
	// stratum, not the certain strata alone.
	a := NewIPSS(7)
	plan, ok := PlanFor(a, 5, 3)
	if !ok {
		t.Fatal("PlanFor(IPSS) not ok")
	}
	if got, want := len(plan), len(a.SamplePlan(5, 3)); got != want {
		t.Fatalf("PlanFor(IPSS) = %d coalitions, want the seeded plan's %d", got, want)
	}
	if cert := int(combin.CumulativeBinomial(5, a.KStar(5))); len(plan) <= cert {
		t.Fatalf("PlanFor(IPSS) = %d coalitions, no more than the %d certain ones", len(plan), cert)
	}

	// Exact schemes plan the whole power set, whatever the seed.
	if plan, ok := PlanFor(ExactMC{}, 4, 1); !ok || len(plan) != 16 {
		t.Fatalf("PlanFor(ExactMC) = (%d, %v), want (16, true)", len(plan), ok)
	}
	// Leave-one-out has a seed-free plan.
	if plan, ok := PlanFor(LeaveOneOut{}, 6, 1); !ok || len(plan) != 7 {
		t.Fatalf("PlanFor(LeaveOneOut) = (%d, %v), want (7, true)", len(plan), ok)
	}
	// Gradient baselines have none.
	if _, ok := PlanFor(OR{}, 4, 1); ok {
		t.Fatal("PlanFor(OR) = ok, want no plan")
	}
}

// planBenchN and planBenchGamma are the benchmark harness's sampler-free
// shape, and planBenchSuite its samplers in run order.
const (
	planBenchN     = 24
	planBenchGamma = 6000
)

var planBenchSuite = []struct {
	name string
	alg  Valuer
}{
	{"ipss", NewIPSS(planBenchGamma)},
	{"cc-shapley", NewCCShapley(planBenchGamma)},
	{"perm-mc", NewPermSampling(planBenchGamma)},
	{"extended-gtb", NewGTB(planBenchGamma)},
	{"mc-banzhaf", NewMCBanzhaf(planBenchGamma)},
	{"extended-tmc", NewTMC(planBenchGamma)},
	{"stratified-neyman", NewStratifiedNeyman(planBenchGamma)},
}

// TestPlanForAllocs pins what planning a budget loop allocates at
// sampler-free's shape. A dry run presizes its recorder for γ + n distinct
// requests: a draw starts while fewer than γ coalitions were requested and
// adds at most n. A recorder sized too small still plans right but grows,
// and every growth adds allocations here. Perm-MC's walks share one
// permutation buffer, so its count no longer grows with the draws.
func TestPlanForAllocs(t *testing.T) {
	// Keep the collector's own bookkeeping out of exact counts.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		alg    Valuer
		allocs float64
	}{
		{NewCCShapley(planBenchGamma), 10},
		{NewGTB(planBenchGamma), 10},
		{NewMCBanzhaf(planBenchGamma), 9},
		{NewPermSampling(planBenchGamma), 9},
	} {
		got := testing.AllocsPerRun(10, func() { PlanFor(tc.alg, planBenchN, 7) })
		if got != tc.allocs {
			t.Errorf("PlanFor(%s, n=%d): %v allocations, want %v", tc.alg.Name(), planBenchN, got, tc.allocs)
		}
	}
}

var planSink []combin.Coalition

// BenchmarkPlanFor plans each of sampler-free's samplers once per
// iteration.
func BenchmarkPlanFor(b *testing.B) {
	for _, tc := range planBenchSuite {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				planSink, _ = PlanFor(tc.alg, planBenchN, int64(i))
			}
		})
	}
}
