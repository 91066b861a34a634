package shapley

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"fedshap/internal/combin"
	"fedshap/internal/utility"
)

// additiveGame builds the utility table of an additive game U(S) = Σ_{i∈S} w_i.
// Marginal contributions are the constants w_i, so exact Shapley values equal
// the weights and every stratum mean is w_i — the cleanest possible probe of
// the tracker's estimator and of ranking resolution.
func additiveGame(n int, w []float64) *utility.Oracle {
	table := make(map[combin.Coalition]float64)
	combin.AllSubsets(n, func(s combin.Coalition) {
		var u float64
		for _, i := range s.Members() {
			u += w[i]
		}
		table[s] = u
	})
	return utility.TableOracle(n, table)
}

func exactRanking(v Values) []int {
	order := make([]int, len(v))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return v[order[a]] > v[order[b]] })
	return order
}

func rankingsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTrackerWelford checks the running mean/variance fold against a direct
// computation, and the estimator's (1/n)·Σ stratum-means shape.
func TestTrackerWelford(t *testing.T) {
	tr := NewTracker(4, 0.9)
	obs := []float64{0.3, -0.1, 0.7, 0.2, 0.4}
	for _, d := range obs {
		tr.Observe(1, 2, d)
	}
	mean := 0.0
	for _, d := range obs {
		mean += d
	}
	mean /= float64(len(obs))
	est := tr.Estimate()
	if got, want := est[1], mean/4; math.Abs(got-want) > 1e-12 {
		t.Fatalf("estimate = %v, want %v", got, want)
	}
	if tr.Observations(1) != len(obs) {
		t.Fatalf("observations = %d, want %d", tr.Observations(1), len(obs))
	}
	for i := 0; i < 4; i++ {
		if i != 1 && tr.Estimate()[i] != 0 {
			t.Fatalf("client %d estimate should be 0", i)
		}
	}
	// Out-of-range observations are dropped, not panics.
	tr.Observe(-1, 0, 1)
	tr.Observe(0, 99, 1)
	if tr.Observations(0) != 0 {
		t.Fatal("out-of-range observe must be ignored")
	}
}

// TestReplayFullEnumeration feeds a complete 2^n enumeration through the
// replay and checks the anytime estimate lands exactly on the exact MC-SV
// values with zero-width intervals and a fully resolved ranking.
func TestReplayFullEnumeration(t *testing.T) {
	const n = 6
	o := randomGame(n, 11)
	exact := mustValues(t, ExactMC{}, NewContext(o, 1))

	plan := ExactMC{}.SamplePlan(n, 0)
	rep := NewReplay(n, 0.95, plan)
	for _, s := range plan {
		rep.Add(s, o.U(s))
	}
	snap := rep.Snapshot()
	if snap.Seen != len(plan) || snap.Planned != len(plan) {
		t.Fatalf("seen %d planned %d, want both %d", snap.Seen, snap.Planned, len(plan))
	}
	for i := 0; i < n; i++ {
		if math.Abs(snap.Values[i]-exact[i]) > 1e-9 {
			t.Fatalf("client %d: anytime %v != exact %v", i, snap.Values[i], exact[i])
		}
		if snap.Lo[i] != snap.Values[i] || snap.Hi[i] != snap.Values[i] {
			t.Fatalf("client %d: interval [%v, %v] not collapsed on %v",
				i, snap.Lo[i], snap.Hi[i], snap.Values[i])
		}
		if snap.Observations[i] != 1<<(n-1) {
			t.Fatalf("client %d: %d observations, want %d", i, snap.Observations[i], 1<<(n-1))
		}
	}
	if !snap.Resolved {
		t.Fatal("fully enumerated game must be resolved")
	}
}

// TestReplayIdempotent re-adds coalitions and checks no observation is
// double counted.
func TestReplayIdempotent(t *testing.T) {
	const n = 4
	o := randomGame(n, 3)
	plan := ExactMC{}.SamplePlan(n, 0)
	rep := NewReplay(n, 0.9, plan)
	for _, s := range plan {
		rep.Add(s, o.U(s))
		rep.Add(s, o.U(s)) // duplicate: must be a no-op
	}
	snap := rep.Snapshot()
	for i := 0; i < n; i++ {
		if snap.Observations[i] != 1<<(n-1) {
			t.Fatalf("client %d: %d observations after duplicates, want %d",
				i, snap.Observations[i], 1<<(n-1))
		}
	}
}

// TestTrackerPrunedStrata builds a plan covering only strata {0, 1} of a
// 3-client game. Cells outside the plan are deliberately pruned: they must
// contribute neither estimate mass nor interval width, so after the plan is
// exhausted the interval collapses onto the truncated estimand.
func TestTrackerPrunedStrata(t *testing.T) {
	const n = 3
	o := randomGame(n, 7)
	plan := []combin.Coalition{combin.Empty}
	combin.SubsetsOfSize(n, 1, func(s combin.Coalition) { plan = append(plan, s) })

	rep := NewReplay(n, 0.9, plan)
	for _, s := range plan {
		rep.Add(s, o.U(s))
	}
	snap := rep.Snapshot()
	for i := 0; i < n; i++ {
		want := (o.U(combin.NewCoalition(i)) - o.U(combin.Empty)) / float64(n)
		if math.Abs(snap.Values[i]-want) > 1e-12 {
			t.Fatalf("client %d: truncated estimate %v, want %v", i, snap.Values[i], want)
		}
		if snap.Lo[i] != snap.Values[i] || snap.Hi[i] != snap.Values[i] {
			t.Fatalf("client %d: pruned-plan interval should collapse, got [%v, %v]",
				i, snap.Lo[i], snap.Hi[i])
		}
	}
}

// TestPlanExhaustive pins which algorithms expose their complete evaluation
// set — the precondition for plan-driven anytime execution and early stop.
func TestPlanExhaustive(t *testing.T) {
	cases := []struct {
		alg  Valuer
		want bool
	}{
		{ExactMC{}, true},
		{ExactCC{}, true},
		{ExactPerm{}, true},
		{ExactBanzhaf{}, true},
		{LeaveOneOut{}, true},
		{NewIPSS(64), true},
		{&KGreedy{K: 2}, true},
		{&Stratified{TotalRounds: 32}, true},
		{&CCShapley{Gamma: 32}, true},
		{&GTB{Gamma: 32}, true},
		{&MCBanzhaf{Gamma: 32}, true},
		{&PermSampling{Gamma: 32}, true},
		{&TMC{Gamma: 32}, false},              // truncation reads utilities
		{&StratifiedNeyman{Gamma: 32}, false}, // allocation reads variances
	}
	for _, tc := range cases {
		if got := PlanExhaustive(tc.alg); got != tc.want {
			t.Errorf("PlanExhaustive(%s) = %v, want %v", tc.alg.Name(), got, tc.want)
		}
	}
}

// TestAnytimeCoverage is the statistical heart of this harness: across 200
// seeded replications of a random 5-client game, stream a shuffled full
// enumeration through the replay and check the simultaneous intervals cover
// the exact Shapley values at every checkpoint. The anytime construction
// targets ≥ nominal coverage of the whole trajectory; the empirical failure
// rate across replications must not exceed the nominal 1 − confidence.
func TestAnytimeCoverage(t *testing.T) {
	const (
		n          = 5
		reps       = 200
		confidence = 0.9
	)
	plan := ExactMC{}.SamplePlan(n, 0)
	failures := 0
	for rep := 0; rep < reps; rep++ {
		seed := int64(1000 + rep)
		o := randomGame(n, seed)
		exact := mustValues(t, ExactMC{}, NewContext(o, 1))

		order := make([]combin.Coalition, len(plan))
		copy(order, plan)
		rng := rand.New(rand.NewSource(seed * 31))
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })

		rp := NewReplay(n, confidence, plan)
		covered := true
		for _, s := range order {
			rp.Add(s, o.U(s))
			snap := rp.Snapshot()
			for i := 0; i < n && covered; i++ {
				if exact[i] < snap.Lo[i]-1e-12 || exact[i] > snap.Hi[i]+1e-12 {
					covered = false
				}
			}
			if !covered {
				break
			}
		}
		if !covered {
			failures++
		}
	}
	maxFailures := int(float64(reps) * (1 - confidence))
	if failures > maxFailures {
		t.Fatalf("coverage failures %d/%d exceed nominal allowance %d",
			failures, reps, maxFailures)
	}
	t.Logf("anytime coverage: %d/%d replications fully covered (allowance %d misses)",
		reps-failures, reps, maxFailures)
}

// TestEarlyStopSoundness replays the IPSS plan of an additive game for 200
// seeds and, at every checkpoint where the ranking-resolution criterion
// fires, compares the anytime ranking against the exact one. The criterion
// must never certify a wrong ranking, and must fire strictly before plan
// exhaustion often enough to be worth having.
func TestEarlyStopSoundness(t *testing.T) {
	// n=11, γ=500 puts IPSS at k*=3 with a 268-of-330 balanced sample of
	// stratum 4, so the per-cell populations are large enough for the
	// without-replacement factor to resolve rankings before the plan runs
	// dry — the same regime the valserve e2e early-stop test exercises.
	const (
		n          = 11
		gamma      = 500
		confidence = 0.6
		seeds      = 200
	)
	earlyStops := 0
	for rep := 0; rep < seeds; rep++ {
		seed := int64(5000 + rep)
		rng := rand.New(rand.NewSource(seed))
		w := make([]float64, n)
		for i := range w {
			w[i] = -0.45 + 0.9*float64(i)/float64(n-1) + 0.02*rng.Float64()
		}
		o := additiveGame(n, w)
		exact := mustValues(t, ExactMC{}, NewContext(o, 1))
		wantRank := exactRanking(exact)

		plan := NewIPSS(gamma).SamplePlan(n, seed)
		rp := NewReplay(n, confidence, plan)
		rp.Tracker().lo, rp.Tracker().hi = -0.5, 0.5
		stoppedAt := -1
		for pos, s := range plan {
			rp.Add(s, o.U(s))
			if rp.Tracker().Resolved() {
				stoppedAt = pos + 1
				break
			}
		}
		if stoppedAt < 0 {
			// The plan ran dry without resolving — allowed (no certificate,
			// no claim), but it must not be the common case.
			continue
		}
		gotRank := exactRanking(rp.Tracker().Estimate())
		if !rankingsEqual(gotRank, wantRank) {
			t.Fatalf("seed %d: resolved at %d/%d with wrong ranking %v (want %v)",
				seed, stoppedAt, len(plan), gotRank, wantRank)
		}
		if stoppedAt < len(plan) {
			earlyStops++
		}
	}
	if earlyStops < seeds/2 {
		t.Fatalf("only %d/%d seeds stopped before plan exhaustion — criterion too weak to matter", earlyStops, seeds)
	}
	t.Logf("early-stop soundness: %d/%d seeds certified strictly early, 0 ranking violations", earlyStops, seeds)
}

// TestResolvedTiesAtExhaustion: a game with two identical clients can never
// separate their intervals, but once every cell is exhausted both intervals
// collapse to the same point and the tie counts as decided.
func TestResolvedTiesAtExhaustion(t *testing.T) {
	const n = 4
	w := []float64{0.3, 0.3, 0.1, 0.5}
	o := additiveGame(n, w)
	plan := ExactMC{}.SamplePlan(n, 0)
	rp := NewReplay(n, 0.9, plan)
	for _, s := range plan {
		rp.Add(s, o.U(s))
	}
	if !rp.Tracker().Resolved() {
		t.Fatal("exhausted enumeration with a tie must still resolve")
	}
	est := rp.Tracker().Estimate()
	if math.Abs(est[0]-est[1]) > 1e-12 {
		t.Fatalf("identical clients diverged: %v vs %v", est[0], est[1])
	}
}
