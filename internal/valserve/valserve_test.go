package valserve

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"fedshap"
	"fedshap/internal/combin"
	"fedshap/internal/experiments"
	"fedshap/internal/theory"
)

// waitState polls until the job reaches a state satisfying ok, or times out.
func waitState(t *testing.T, m *Manager, id string, ok func(*fedshap.JobStatus) bool) *fedshap.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := m.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if ok(st) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach the expected state in time", id)
	return nil
}

func terminal(st *fedshap.JobStatus) bool { return st.State.Terminal() }

// gameBuilder injects a deterministic cooperative game so manager tests
// need no FL training: U(S) = Σ_{i∈S} (i+1), optionally slowed per eval.
func gameBuilder(delay time.Duration, evalCount *atomic.Int64) func(fedshap.JobRequest) (*experiments.Problem, error) {
	return func(req fedshap.JobRequest) (*experiments.Problem, error) {
		return experiments.NewFuncProblem("injected-game", req.N, func(s combin.Coalition) float64 {
			if evalCount != nil {
				evalCount.Add(1)
			}
			if delay > 0 {
				time.Sleep(delay)
			}
			var u float64
			for _, i := range s.Members() {
				u += float64(i + 1)
			}
			return u
		}), nil
	}
}

func TestNormalizeAndFingerprint(t *testing.T) {
	a := fedshap.JobRequest{Data: " FEMNIST ", Model: "MLP", N: 6, Algorithm: "IPSS"}
	b := fedshap.JobRequest{N: 6, Algorithm: "tmc", Gamma: 99}
	Normalize(&a)
	Normalize(&b)
	if a.Data != "femnist" || a.Scale != "small" || a.Seed != 1 || a.Gamma != theory.GammaForN(6) {
		t.Errorf("Normalize(a) = %+v", a)
	}
	// Sampler settings must not change the problem fingerprint...
	if Fingerprint(a) != Fingerprint(b) {
		t.Errorf("fingerprint depends on algorithm/gamma: %s vs %s", Fingerprint(a), Fingerprint(b))
	}
	// ...while problem settings must.
	c := a
	c.Seed = 2
	if Fingerprint(a) == Fingerprint(c) {
		t.Error("fingerprint ignores seed")
	}
	d := a
	d.N = 7
	if Fingerprint(a) == Fingerprint(d) {
		t.Error("fingerprint ignores n")
	}
}

func TestSubmitValidation(t *testing.T) {
	m, err := NewManager(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	bad := []fedshap.JobRequest{
		{Data: "femnist", Model: "mlp", N: 1, Algorithm: "ipss"},   // n too small
		{Data: "femnist", Model: "mlp", N: 6, Algorithm: "nope"},   // unknown alg
		{Data: "nope", Model: "mlp", N: 6, Algorithm: "ipss"},      // unknown dataset
		{Data: "femnist", Model: "nope", N: 6, Algorithm: "ipss"},  // unknown model
		{Data: "femnist", Model: "mlp", N: 40, Algorithm: "exact"}, // power set too large
		{Data: "synthetic", Setup: "bad", Model: "mlp", N: 6, Algorithm: "ipss"},
	}
	for _, req := range bad {
		if _, err := m.Submit(req); err == nil {
			t.Errorf("Submit(%+v) accepted", req)
		}
	}
}

func TestQueueFullAndQueuedCancel(t *testing.T) {
	gate := make(chan struct{})
	m, err := NewManager(Config{
		Workers:  1,
		QueueCap: 1,
		BuildProblem: func(req fedshap.JobRequest) (*experiments.Problem, error) {
			<-gate // hold the single worker until released
			return gameBuilder(0, nil)(req)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	defer close(gate)

	req := fedshap.JobRequest{N: 4, Algorithm: "ipss", Gamma: 6}
	st1, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to pick job 1 up so the queue is empty again.
	waitState(t, m, st1.ID, func(s *fedshap.JobStatus) bool { return s.State == fedshap.JobRunning })

	st2, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(req); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third Submit err = %v, want ErrQueueFull", err)
	}

	// Cancelling the queued job terminates it without ever running.
	cst, err := m.Cancel(st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cst.State != fedshap.JobCancelled || cst.StartedAt != nil {
		t.Errorf("queued cancel: state=%s startedAt=%v", cst.State, cst.StartedAt)
	}
}

// TestCancelRunningJobStopsFreshEvals is the core cancellation guarantee:
// after cancel, the job terminates as cancelled and issues no further
// fresh coalition evaluations. A pool of one has no prefetch pass, so its
// job is cancelled in aggregate (shapley.Run); a pool of two is cancelled
// in prefetch (Prefetch). Both report the bare context error.
func TestCancelRunningJobStopsFreshEvals(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"aggregate", 1},
		{"prefetch", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var evals atomic.Int64
			m, err := NewManager(Config{
				Workers:      1,
				EvalWorkers:  tc.workers,
				BuildProblem: gameBuilder(3*time.Millisecond, &evals),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()

			// exact on n=8 needs 256 evaluations ≈ 0.8s at 3ms each (half
			// that on two workers) — plenty of time to observe and cancel
			// mid-run.
			st, err := m.Submit(fedshap.JobRequest{N: 8, Algorithm: "exact"})
			if err != nil {
				t.Fatal(err)
			}
			if st.Budget != 256 {
				t.Errorf("budget = %d, want 256 (2^8)", st.Budget)
			}
			waitState(t, m, st.ID, func(s *fedshap.JobStatus) bool { return s.FreshEvals >= 3 })
			if _, err := m.Cancel(st.ID); err != nil {
				t.Fatal(err)
			}
			fin := waitState(t, m, st.ID, terminal)
			if fin.State != fedshap.JobCancelled {
				t.Fatalf("state = %s (%s), want cancelled", fin.State, fin.Error)
			}
			if fin.Error != context.Canceled.Error() {
				t.Errorf("error = %q, want %q", fin.Error, context.Canceled.Error())
			}
			if fin.FreshEvals >= 256 {
				t.Errorf("cancelled job still ran all %d evaluations", fin.FreshEvals)
			}
			if fin.Report != nil {
				t.Error("cancelled job produced a report")
			}
			// No evaluations may trickle in after the terminal state.
			settled := evals.Load()
			time.Sleep(50 * time.Millisecond)
			if got := evals.Load(); got != settled {
				t.Errorf("evaluations continued after cancellation: %d → %d", settled, got)
			}
		})
	}
}

// TestWarmResubmitZeroFresh is the persistence guarantee: an identical job
// resubmitted — including across a manager restart — is served entirely
// from the disk cache and reports zero fresh evaluations.
func TestWarmResubmitZeroFresh(t *testing.T) {
	dir := t.TempDir()
	mk := func() *Manager {
		m, err := NewManager(Config{
			Workers:      1,
			CacheDir:     dir,
			BuildProblem: gameBuilder(0, nil),
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	req := fedshap.JobRequest{N: 6, Algorithm: "ipss", Gamma: 12, Seed: 3}

	m1 := mk()
	st, err := m1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	first := waitState(t, m1, st.ID, terminal)
	if first.State != fedshap.JobDone {
		t.Fatalf("first run: %s (%s)", first.State, first.Error)
	}
	if first.FreshEvals == 0 || first.Report.Evaluations != first.FreshEvals {
		t.Fatalf("first run fresh evals = %d (report %d), want > 0 and equal",
			first.FreshEvals, first.Report.Evaluations)
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restarted manager, same cache dir: the resubmitted job must be fully
	// warm.
	m2 := mk()
	defer m2.Close()
	st2, err := m2.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	second := waitState(t, m2, st2.ID, terminal)
	if second.State != fedshap.JobDone {
		t.Fatalf("second run: %s (%s)", second.State, second.Error)
	}
	if second.FreshEvals != 0 || second.Report.Evaluations != 0 {
		t.Errorf("warm rerun fresh evals = %d (report %d), want 0", second.FreshEvals, second.Report.Evaluations)
	}
	if second.WarmedCoalitions < first.FreshEvals {
		t.Errorf("warmed %d < first run's %d evaluations", second.WarmedCoalitions, first.FreshEvals)
	}
	if len(second.Report.Values) != len(first.Report.Values) {
		t.Fatalf("value count changed: %d vs %d", len(second.Report.Values), len(first.Report.Values))
	}
	for i := range first.Report.Values {
		if first.Report.Values[i] != second.Report.Values[i] {
			t.Errorf("value[%d] changed on warm rerun: %v vs %v", i, first.Report.Values[i], second.Report.Values[i])
		}
	}
	// A different algorithm on the same problem also starts warm: the
	// cache is keyed by problem, not sampler.
	st3, err := m2.Submit(fedshap.JobRequest{N: 6, Algorithm: "kgreedy", K: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	third := waitState(t, m2, st3.ID, terminal)
	if third.State != fedshap.JobDone {
		t.Fatalf("third run: %s (%s)", third.State, third.Error)
	}
	if third.WarmedCoalitions == 0 {
		t.Error("cross-algorithm job saw no warm utilities")
	}
}

// TestWarmBudgetSemantics: budget-gated samplers (TMC loops until
// Evals() < γ fails) must run against a per-job budget view, because
// warmed utilities never count as fresh evaluations — without the view, a
// fully warm cache would make TMC loop forever. Regression test for the
// RunView wiring in runJob.
func TestWarmBudgetSemantics(t *testing.T) {
	dir := t.TempDir()
	mk := func() *Manager {
		m, err := NewManager(Config{Workers: 1, CacheDir: dir, BuildProblem: gameBuilder(0, nil)})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := mk()
	defer m.Close()

	// Persist the complete n=5 game (2^5 coalitions).
	st, err := m.Submit(fedshap.JobRequest{N: 5, Algorithm: "exact", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitState(t, m, st.ID, terminal); fin.State != fedshap.JobDone {
		t.Fatalf("exact run: %s (%s)", fin.State, fin.Error)
	}

	// A fully warm TMC job must terminate at its budget, with no fresh work.
	st2, err := m.Submit(fedshap.JobRequest{N: 5, Algorithm: "tmc", Gamma: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, m, st2.ID, terminal)
	if fin.State != fedshap.JobDone {
		t.Fatalf("warm tmc run: %s (%s)", fin.State, fin.Error)
	}
	if fin.FreshEvals != 0 {
		t.Errorf("warm tmc fresh evals = %d, want 0", fin.FreshEvals)
	}
}

// TestJobFailureIsIsolated: a panicking problem build or evaluation fails
// the job, not the manager.
func TestJobFailureIsIsolated(t *testing.T) {
	m, err := NewManager(Config{
		Workers: 1,
		BuildProblem: func(req fedshap.JobRequest) (*experiments.Problem, error) {
			if req.N == 3 {
				return experiments.NewFuncProblem("boom", req.N, func(s combin.Coalition) float64 {
					panic("evaluation exploded")
				}), nil
			}
			return gameBuilder(0, nil)(req)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	st, err := m.Submit(fedshap.JobRequest{N: 3, Algorithm: "ipss", Gamma: 4})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, m, st.ID, terminal)
	if fin.State != fedshap.JobFailed {
		t.Fatalf("state = %s, want failed", fin.State)
	}
	// The worker survives and runs the next job.
	st2, err := m.Submit(fedshap.JobRequest{N: 4, Algorithm: "ipss", Gamma: 6})
	if err != nil {
		t.Fatal(err)
	}
	if fin2 := waitState(t, m, st2.ID, terminal); fin2.State != fedshap.JobDone {
		t.Fatalf("follow-up job: %s (%s)", fin2.State, fin2.Error)
	}
}
