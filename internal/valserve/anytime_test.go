package valserve

import (
	"context"
	"errors"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"fedshap"
	"fedshap/internal/combin"
	"fedshap/internal/experiments"
)

// versionedGameBuilder injects an additive game whose per-client weights
// move with the request's dataset versions: w_i = (i+1) + 10·version_i.
// Reading req.Versions is exactly what the standard BuildProblem does with
// real datasets (perturb the versioned clients), shrunk to a closed form.
func versionedGameBuilder(evalCount *atomic.Int64) func(fedshap.JobRequest) (*experiments.Problem, error) {
	return func(req fedshap.JobRequest) (*experiments.Problem, error) {
		vers := req.Versions
		return experiments.NewFuncProblem("versioned-game", req.N, func(s combin.Coalition) float64 {
			if evalCount != nil {
				evalCount.Add(1)
			}
			var u float64
			for _, i := range s.Members() {
				w := float64(i + 1)
				if i < len(vers) {
					w += 10 * float64(vers[i])
				}
				u += w
			}
			return u
		}), nil
	}
}

// ranking returns client indices sorted by descending value.
func ranking(values []float64) []int {
	idx := make([]int, len(values))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return values[idx[a]] > values[idx[b]] })
	return idx
}

func equalInts(a, b []int) bool {
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

// near tolerates accumulation error when comparing against an analytic
// value; run-vs-run comparisons stay bitwise.
func near(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

func equalFloats(a, b []float64) bool {
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

// runOnce executes one job on a fresh manager (no shared cache) and
// returns its terminal status.
func runOnce(t *testing.T, req fedshap.JobRequest) *fedshap.JobStatus {
	t.Helper()
	m, err := NewManager(Config{Workers: 1, BuildProblem: gameBuilder(0, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st = waitState(t, m, st.ID, terminal)
	if st.State != fedshap.JobDone {
		t.Fatalf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return st
}

// TestAnytimeValidation covers the request-level rules: confidence range,
// rank_stop prerequisites, and version vector sanity.
func TestAnytimeValidation(t *testing.T) {
	m, err := NewManager(Config{Workers: 1, BuildProblem: gameBuilder(0, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	cases := []struct {
		name string
		req  fedshap.JobRequest
	}{
		{"confidence too high", fedshap.JobRequest{N: 4, Algorithm: "ipss", Confidence: 1}},
		{"confidence negative", fedshap.JobRequest{N: 4, Algorithm: "ipss", Confidence: -0.1}},
		{"rank_stop without confidence", fedshap.JobRequest{N: 4, Algorithm: "ipss", RankStop: true}},
		{"rank_stop on partial-plan algorithm", fedshap.JobRequest{N: 4, Algorithm: "tmc", Confidence: 0.9, RankStop: true}},
		{"too many versions", fedshap.JobRequest{N: 4, Algorithm: "ipss", Versions: []int{1, 0, 0, 0, 1}}},
		{"negative version", fedshap.JobRequest{N: 4, Algorithm: "ipss", Versions: []int{-1, 0, 0, 2}}},
	}
	for _, tc := range cases {
		if _, err := m.Submit(tc.req); err == nil {
			t.Errorf("%s: Submit accepted %+v", tc.name, tc.req)
		}
	}

	// Sanity: the confidence+rank_stop combination those cases circle is
	// accepted on a plan-exhaustive algorithm.
	if _, err := m.Submit(fedshap.JobRequest{N: 4, Algorithm: "ipss", Confidence: 0.9, RankStop: true}); err != nil {
		t.Errorf("valid rank_stop request rejected: %v", err)
	}
}

// TestVersionsFingerprint pins the version vector's fingerprint semantics:
// all-zero vectors normalise away (same fingerprint as version-less), and
// distinct non-zero vectors get distinct fingerprints.
func TestVersionsFingerprint(t *testing.T) {
	base := fedshap.JobRequest{N: 5, Algorithm: "ipss"}
	zero := fedshap.JobRequest{N: 5, Algorithm: "ipss", Versions: []int{0, 0, 0, 0, 0}}
	v1 := fedshap.JobRequest{N: 5, Algorithm: "ipss", Versions: []int{0, 1, 0, 0, 0}}
	v2 := fedshap.JobRequest{N: 5, Algorithm: "ipss", Versions: []int{0, 2, 0, 0, 0}}
	Normalize(&base)
	Normalize(&zero)
	Normalize(&v1)
	Normalize(&v2)
	if zero.Versions != nil {
		t.Errorf("all-zero versions survived Normalize: %v", zero.Versions)
	}
	if Fingerprint(base) != Fingerprint(zero) {
		t.Error("all-zero version vector changed the fingerprint")
	}
	if Fingerprint(base) == Fingerprint(v1) || Fingerprint(v1) == Fingerprint(v2) {
		t.Error("distinct version vectors must yield distinct fingerprints")
	}
	if !equalInts(v1.Versions, []int{0, 1}) {
		t.Errorf("trailing zeros not trimmed: %v", v1.Versions)
	}
}

// TestAnytimeDeterminism is the PR 4 determinism suite extended to anytime
// tracking: with early stop disabled, a job run with a confidence request
// reports bit-identical values and evaluation counts to the same job run
// without one — per algorithm, at one and at three evaluation workers.
// Plan-driven algorithms exercise the chunked drive path, tmc the passive
// observer.
func TestAnytimeDeterminism(t *testing.T) {
	for _, alg := range []string{"ipss", "exact", "stratified-mc", "tmc"} {
		var baseline *fedshap.Report
		for _, workers := range []int{1, 3} {
			for _, confidence := range []float64{0, 0.9} {
				req := fedshap.JobRequest{
					N: 6, Algorithm: alg, Gamma: 40, Seed: 7,
					Workers: workers, Confidence: confidence,
				}
				st := runOnce(t, req)
				rep := st.Report
				if baseline == nil {
					baseline = rep
					continue
				}
				if !equalFloats(rep.Values, baseline.Values) {
					t.Errorf("%s workers=%d confidence=%g: values %v != baseline %v",
						alg, workers, confidence, rep.Values, baseline.Values)
				}
				if rep.Evaluations != baseline.Evaluations {
					t.Errorf("%s workers=%d confidence=%g: %d evaluations, baseline %d",
						alg, workers, confidence, rep.Evaluations, baseline.Evaluations)
				}
				if confidence > 0 {
					if rep.EarlyStopped {
						t.Errorf("%s: early-stopped without rank_stop", alg)
					}
					if len(rep.CILow) != 6 || len(rep.CIHigh) != 6 || len(rep.AnytimeValues) != 6 {
						t.Errorf("%s: anytime decoration missing: %+v", alg, rep)
					}
					for i := range rep.CILow {
						if rep.CILow[i] > rep.AnytimeValues[i] || rep.AnytimeValues[i] > rep.CIHigh[i] {
							t.Errorf("%s: estimate %d outside its own interval", alg, i)
						}
					}
				} else if rep.CILow != nil || rep.AnytimeValues != nil {
					t.Errorf("%s: control run carries anytime fields", alg)
				}
			}
		}
	}
}

// TestAnytimeExactCollapse: an exhaustively-enumerated anytime job ends
// with every interval collapsed to a point — the estimand is known, and
// the report says so.
func TestAnytimeExactCollapse(t *testing.T) {
	st := runOnce(t, fedshap.JobRequest{N: 5, Algorithm: "exact", Seed: 3, Confidence: 0.95})
	rep := st.Report
	for i := range rep.AnytimeValues {
		if rep.CILow[i] != rep.AnytimeValues[i] || rep.CIHigh[i] != rep.AnytimeValues[i] {
			t.Fatalf("client %d interval [%g,%g] not collapsed onto %g after full enumeration",
				i, rep.CILow[i], rep.CIHigh[i], rep.AnytimeValues[i])
		}
		// The injected game is additive, so the exact value is i+1 and the
		// tracker's mean-of-marginals must agree with it.
		if want := float64(i + 1); !near(rep.AnytimeValues[i], want) {
			t.Fatalf("client %d anytime estimate %g, want %g", i, rep.AnytimeValues[i], want)
		}
	}
}

// TestEarlyStopEndToEnd is the acceptance scenario over loopback HTTP: an
// IPSS job with rank_stop finishes with strictly fewer fresh evaluations
// than the identical full-budget control while reporting the same client
// ranking, and streams interim values events on the way. n=11/γ=500 puts
// hundreds of coalitions in each sampled stratum — the regime where the
// without-replacement (Serfling) correction resolves rankings well before
// the plan runs out.
func TestEarlyStopEndToEnd(t *testing.T) {
	client, _ := startDaemon(t, Config{Workers: 1, BuildProblem: gameBuilder(2*time.Millisecond, nil)})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	base := fedshap.JobRequest{N: 11, Algorithm: "ipss", Gamma: 500, Seed: 11}

	control, err := client.Submit(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	controlSt, err := client.Wait(ctx, control.ID, 10*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if controlSt.State != fedshap.JobDone {
		t.Fatalf("control job %s: %s", controlSt.State, controlSt.Error)
	}

	stop := base
	stop.Confidence = 0.6
	stop.RankStop = true
	stopJob, err := client.Submit(ctx, stop)
	if err != nil {
		t.Fatal(err)
	}
	var snapshots []*fedshap.InterimValues
	stopSt, err := client.WatchValues(ctx, stopJob.ID, nil,
		func(iv *fedshap.InterimValues) { snapshots = append(snapshots, iv) })
	if err != nil {
		t.Fatal(err)
	}
	if stopSt.State != fedshap.JobDone {
		t.Fatalf("rank_stop job %s: %s", stopSt.State, stopSt.Error)
	}

	rep := stopSt.Report
	if !rep.EarlyStopped {
		t.Fatal("rank_stop job did not stop early")
	}
	if rep.BudgetUnspent <= 0 {
		t.Fatalf("early-stopped job reports BudgetUnspent=%d", rep.BudgetUnspent)
	}
	if stopSt.FreshEvals >= controlSt.FreshEvals {
		t.Fatalf("early stop spent %d fresh evaluations, control %d — no saving",
			stopSt.FreshEvals, controlSt.FreshEvals)
	}
	if got, want := ranking(rep.Values), ranking(controlSt.Report.Values); !equalInts(got, want) {
		t.Fatalf("early-stopped ranking %v differs from control %v", got, want)
	}
	if len(snapshots) == 0 {
		t.Fatal("no interim values events observed on the SSE stream")
	}
	last := snapshots[len(snapshots)-1]
	if !last.Resolved {
		t.Errorf("final snapshot not marked resolved: %+v", last)
	}
	if last.PlannedCoalitions != 500 {
		t.Errorf("final snapshot planned=%d, want 500", last.PlannedCoalitions)
	}
	for i := range last.Values {
		if last.CILow[i] > last.Values[i] || last.Values[i] > last.CIHigh[i] {
			t.Errorf("snapshot interval %d does not contain its estimate", i)
		}
	}
	t.Logf("early stop: %d/%d fresh evaluations (%d unspent), %d values events",
		stopSt.FreshEvals, controlSt.FreshEvals, rep.BudgetUnspent, len(snapshots))
}

// TestRevalueDelta covers delta revaluation end to end at the manager
// layer: a changed-client bump migrates every untouched coalition's
// utility to the new fingerprint, the follow-up job spends fresh
// evaluations only on coalitions containing the changed client, and its
// values are bit-identical to a from-scratch run of the versioned problem.
func TestRevalueDelta(t *testing.T) {
	var evals atomic.Int64
	m, err := NewManager(Config{
		Workers:      1,
		CacheDir:     t.TempDir(),
		BuildProblem: versionedGameBuilder(&evals),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	base := fedshap.JobRequest{N: 6, Algorithm: "exact", Seed: 5}
	st, err := m.Submit(base)
	if err != nil {
		t.Fatal(err)
	}
	st = waitState(t, m, st.ID, terminal)
	if st.State != fedshap.JobDone {
		t.Fatalf("base job %s: %s", st.State, st.Error)
	}
	if st.FreshEvals != 64 {
		t.Fatalf("base exact job made %d fresh evaluations, want 64", st.FreshEvals)
	}

	// Guard-rails first: unknown job, empty and out-of-range change sets,
	// and revaluing a non-terminal job are all rejected.
	if _, err := m.Revalue("nope", []int{0}); !errors.Is(err, ErrNotFound) {
		t.Errorf("Revalue(unknown) = %v, want ErrNotFound", err)
	}
	if _, err := m.Revalue(st.ID, nil); err == nil {
		t.Error("Revalue with empty change set accepted")
	}
	if _, err := m.Revalue(st.ID, []int{6}); err == nil {
		t.Error("Revalue with out-of-range client accepted")
	}

	rst, err := m.Revalue(st.ID, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if rst.RevalueOf != st.ID {
		t.Errorf("RevalueOf = %q, want %q", rst.RevalueOf, st.ID)
	}
	if rst.Fingerprint == st.Fingerprint {
		t.Error("revaluation kept the base fingerprint")
	}
	if !equalInts(rst.Request.Versions, []int{0, 0, 1}) {
		t.Errorf("revaluation versions = %v, want [0 0 1]", rst.Request.Versions)
	}
	rst = waitState(t, m, rst.ID, terminal)
	if rst.State != fedshap.JobDone {
		t.Fatalf("revalue job %s: %s", rst.State, rst.Error)
	}
	// Exactly the 2^5 = 32 coalitions containing client 2 retrain; the 32
	// disjoint ones were migrated and arrive warm.
	if rst.FreshEvals != 32 {
		t.Errorf("revalue job made %d fresh evaluations, want 32", rst.FreshEvals)
	}
	if rst.WarmedCoalitions != 32 {
		t.Errorf("revalue job warm-started %d coalitions, want 32", rst.WarmedCoalitions)
	}
	for i, v := range rst.Report.Values {
		want := float64(i + 1)
		if i == 2 {
			want += 10
		}
		if !near(v, want) {
			t.Errorf("revalued value[%d] = %g, want %g", i, v, want)
		}
	}

	// Bit-identical to a cold full recompute of the same versioned
	// problem on an independent manager.
	m2, err := NewManager(Config{Workers: 1, BuildProblem: versionedGameBuilder(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	full := base
	full.Versions = []int{0, 0, 1, 0, 0, 0}
	fst, err := m2.Submit(full)
	if err != nil {
		t.Fatal(err)
	}
	fst = waitState(t, m2, fst.ID, terminal)
	if fst.State != fedshap.JobDone {
		t.Fatalf("full recompute %s: %s", fst.State, fst.Error)
	}
	if fst.Fingerprint != rst.Fingerprint {
		t.Errorf("full recompute fingerprint %s != revaluation fingerprint %s", fst.Fingerprint, rst.Fingerprint)
	}
	if !equalFloats(fst.Report.Values, rst.Report.Values) {
		t.Errorf("delta revaluation %v differs from full recompute %v", rst.Report.Values, fst.Report.Values)
	}

	// Chaining works: revaluing the revaluation bumps client 2 again.
	r2, err := m.Revalue(rst.ID, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(r2.Request.Versions, []int{0, 0, 2}) {
		t.Errorf("chained revaluation versions = %v, want [0 0 2]", r2.Request.Versions)
	}
	r2 = waitState(t, m, r2.ID, terminal)
	if r2.State != fedshap.JobDone {
		t.Fatalf("chained revaluation %s: %s", r2.State, r2.Error)
	}
	if v := r2.Report.Values[2]; !near(v, 3+20) {
		t.Errorf("chained revaluation value[2] = %g, want 23", v)
	}
}

// TestAnytimeWarmResubmitMatchesCold: a resubmit served entirely from the
// store reports the anytime estimates and intervals of the cold run that
// filled it, at one and at three evaluation workers — tmc through the
// observer, ipss through the plan drive. The observer used to fold only
// fresh evaluations, so a warm tmc rerun reported zeros inside [-1, 1].
func TestAnytimeWarmResubmitMatchesCold(t *testing.T) {
	for _, alg := range []string{"tmc", "ipss"} {
		var want *fedshap.Report
		for _, workers := range []int{1, 3} {
			dir := t.TempDir()
			for _, pass := range []string{"cold", "warm"} {
				m, err := NewManager(Config{Workers: 1, CacheDir: dir, BuildProblem: gameBuilder(0, nil)})
				if err != nil {
					t.Fatal(err)
				}
				st, err := m.Submit(fedshap.JobRequest{N: 6, Algorithm: alg, Gamma: 40, Seed: 7, Workers: workers, Confidence: 0.9})
				if err != nil {
					t.Fatal(err)
				}
				st = waitState(t, m, st.ID, terminal)
				if err := m.Close(); err != nil {
					t.Fatal(err)
				}
				if st.State != fedshap.JobDone {
					t.Fatalf("%s workers=%d %s: %s (%s)", alg, workers, pass, st.State, st.Error)
				}
				if pass == "warm" && st.FreshEvals != 0 {
					t.Fatalf("%s workers=%d: warm run made %d fresh evaluations", alg, workers, st.FreshEvals)
				}
				rep := st.Report
				if want == nil {
					want = rep
					continue
				}
				if !equalFloats(rep.AnytimeValues, want.AnytimeValues) || !equalFloats(rep.CILow, want.CILow) || !equalFloats(rep.CIHigh, want.CIHigh) {
					t.Errorf("%s workers=%d %s: anytime %v in [%v, %v], want %v in [%v, %v]", alg, workers, pass,
						rep.AnytimeValues, rep.CILow, rep.CIHigh, want.AnytimeValues, want.CILow, want.CIHigh)
				}
			}
		}
		// tmc's tracker covers every stratum, so its intervals hold the
		// additive game's Shapley values i+1.
		if alg == "tmc" {
			for i := range want.CILow {
				if v := float64(i + 1); want.CILow[i] > v || v > want.CIHigh[i] {
					t.Errorf("tmc client %d: [%g, %g] excludes the true value %g", i, want.CILow[i], want.CIHigh[i], v)
				}
			}
		}
	}
}
