package valserve

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"fedshap"
	"fedshap/internal/combin"
	"fedshap/internal/evalnet"
	"fedshap/internal/experiments"
	"fedshap/internal/shapley"
	"fedshap/internal/utility"
)

// countingBuilder wraps a problem builder, counting its calls.
func countingBuilder(build func(fedshap.JobRequest) (*experiments.Problem, error), calls *atomic.Int64) func(fedshap.JobRequest) (*experiments.Problem, error) {
	return func(req fedshap.JobRequest) (*experiments.Problem, error) {
		calls.Add(1)
		return build(req)
	}
}

// startGameWorker attaches one in-process fleet worker answering the
// additive test game, and waits until the coordinator lists it.
func startGameWorker(t *testing.T) *evalnet.Coordinator {
	t.Helper()
	coord, addr := startFleetCoordinator(t)
	ctx, stop := context.WithCancel(context.Background())
	t.Cleanup(stop)
	go func() {
		w := &evalnet.Worker{Name: "wa", Capacity: 2, Build: func(evalnet.ProblemSpec) (evalnet.Evaluator, error) {
			return evalnet.Evaluator{Eval: func(s combin.Coalition) float64 { return float64(s.Size()) }}, nil
		}}
		_ = w.Dial(ctx, addr)
	}()
	waitFleet(t, coord, 1)
	return coord
}

// hasSpan reports whether a job's trace holds a span of the given name.
func hasSpan(t *testing.T, m *Manager, id, name string) bool {
	t.Helper()
	tr, err := m.Trace(id)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range tr.Spans {
		if sp.Name == name {
			return true
		}
	}
	return false
}

// TestFleetServedJobBuildsNoProblem: every coalition of a job served by
// the worker fleet trains remotely, so the daemon never builds the job's
// problem.
func TestFleetServedJobBuildsNoProblem(t *testing.T) {
	coord := startGameWorker(t)
	var builds atomic.Int64
	m, err := NewManager(Config{
		Workers:      1,
		CacheDir:     t.TempDir(),
		Coordinator:  coord,
		BuildProblem: countingBuilder(gameBuilder(0, nil), &builds),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st, err := m.Submit(fedshap.JobRequest{N: 5, Algorithm: "exact", Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, m, st.ID, terminal)
	if fin.State != fedshap.JobDone || fin.FreshEvals != 32 {
		t.Fatalf("job: %s fresh=%d (%s)", fin.State, fin.FreshEvals, fin.Error)
	}
	if n := builds.Load(); n != 0 {
		t.Errorf("fleet-served job built its problem %d times on the daemon, want 0", n)
	}
	if hasSpan(t, m, st.ID, "build_problem") {
		t.Error("fleet-served job's trace has a build_problem span")
	}
}

// TestProblemBuiltOnlyWhereTrained: a cold local job builds its problem
// exactly once, however wide its evaluation pool; a warm resubmit builds
// nothing.
func TestProblemBuiltOnlyWhereTrained(t *testing.T) {
	var builds atomic.Int64
	m, err := NewManager(Config{
		Workers:      1,
		CacheDir:     t.TempDir(),
		BuildProblem: countingBuilder(gameBuilder(0, nil), &builds),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, workers := range []int{1, 4} {
		req := fedshap.JobRequest{N: 6, Algorithm: "exact", Seed: int64(10 + workers), Workers: workers}
		builds.Store(0)
		st, err := m.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		cold := waitState(t, m, st.ID, terminal)
		if cold.State != fedshap.JobDone || cold.FreshEvals != 64 {
			t.Fatalf("workers=%d cold job: %s fresh=%d (%s)", workers, cold.State, cold.FreshEvals, cold.Error)
		}
		if n := builds.Load(); n != 1 {
			t.Errorf("workers=%d cold job built its problem %d times, want 1", workers, n)
		}
		if cold.Problem != "injected-game" {
			t.Errorf("workers=%d cold job problem = %q, want the builder's name", workers, cold.Problem)
		}

		builds.Store(0)
		st, err = m.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		warm := waitState(t, m, st.ID, terminal)
		if warm.State != fedshap.JobDone || warm.FreshEvals != 0 {
			t.Fatalf("workers=%d warm job: %s fresh=%d (%s)", workers, warm.State, warm.FreshEvals, warm.Error)
		}
		if n := builds.Load(); n != 0 {
			t.Errorf("workers=%d warm resubmit built its problem %d times, want 0", workers, n)
		}
		if hasSpan(t, m, st.ID, "build_problem") {
			t.Errorf("workers=%d warm resubmit's trace has a build_problem span", workers)
		}
		for i := range cold.Report.Values {
			if cold.Report.Values[i] != warm.Report.Values[i] {
				t.Errorf("workers=%d value[%d]: warm %v, cold %v", workers, i, warm.Report.Values[i], cold.Report.Values[i])
			}
		}
	}
}

// TestSpecReaderBuildsItsProblem: a reconstruction baseline reads the FL
// spec, not the oracle, so its job builds the problem once, before the
// reduction, and values it exactly as a run over an eagerly built problem
// does.
func TestSpecReaderBuildsItsProblem(t *testing.T) {
	if testing.Short() {
		t.Skip("trains real FL models")
	}
	var builds atomic.Int64
	m, err := NewManager(Config{Workers: 1, BuildProblem: countingBuilder(BuildProblem, &builds)})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	req := fedshap.JobRequest{Data: "synthetic", Model: "logreg", N: 3, Algorithm: "or", Scale: "tiny", Seed: 5}
	st, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, m, st.ID, terminal)
	if fin.State != fedshap.JobDone {
		t.Fatalf("or job: %s (%s)", fin.State, fin.Error)
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("or job built its problem %d times, want 1", n)
	}

	Normalize(&req)
	p, err := BuildProblem(req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := shapley.Run(shapley.NewContext(utility.NewRunView(p.Oracle()), req.Seed+2).WithSpec(p.Spec), shapley.OR{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if fin.Report.Values[i] != want[i] {
			t.Errorf("value[%d] = %v, want %v (eagerly built problem)", i, fin.Report.Values[i], want[i])
		}
	}
}

// TestFailedBuildFailsOnlyItsJob: a builder error ends its own job failed
// with the builder's message — whether the build runs on the reduction's
// goroutine, on a prefetch pool worker, or before a spec reader's
// reduction — and the next job runs.
func TestFailedBuildFailsOnlyItsJob(t *testing.T) {
	m, err := NewManager(Config{
		Workers: 1,
		BuildProblem: func(req fedshap.JobRequest) (*experiments.Problem, error) {
			if req.N == 3 {
				return nil, errors.New("no data for this federation")
			}
			return gameBuilder(0, nil)(req)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, req := range []fedshap.JobRequest{
		{N: 3, Algorithm: "exact", Workers: 1},
		{N: 3, Algorithm: "exact", Workers: 3},
		{N: 3, Algorithm: "ipss", Gamma: 4, Confidence: 0.9, Workers: 2},
		{N: 3, Algorithm: "or"},
	} {
		st, err := m.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		fin := waitState(t, m, st.ID, terminal)
		if fin.State != fedshap.JobFailed || fin.Error != "no data for this federation" {
			t.Errorf("%s workers=%d: state %s, error %q; want failed with the builder's error",
				req.Algorithm, req.Workers, fin.State, fin.Error)
		}
		next, err := m.Submit(fedshap.JobRequest{N: 4, Algorithm: "ipss", Gamma: 6, Workers: req.Workers})
		if err != nil {
			t.Fatal(err)
		}
		if fin := waitState(t, m, next.ID, terminal); fin.State != fedshap.JobDone {
			t.Fatalf("job after a failed build: %s (%s)", fin.State, fin.Error)
		}
	}
}

// TestProblemNamedWithoutBuild: with the standard builder a job is named
// from its request alone, so a fleet-served or warm job that builds
// nothing still reports its problem, under the name BuildProblem gives it.
func TestProblemNamedWithoutBuild(t *testing.T) {
	for _, req := range []fedshap.JobRequest{
		{Data: "femnist", Model: "mlp", N: 3, Scale: "tiny"},
		{Data: "adult", Model: "logreg", N: 3, Scale: "tiny"},
		{Data: "synthetic", Model: "cnn", N: 3, Scale: "tiny", Setup: "same-size-noisy-label", Noise: 0.1},
	} {
		Normalize(&req)
		p, err := BuildProblem(req)
		if err != nil {
			t.Fatal(err)
		}
		if got := problemName(req); got != p.Name {
			t.Errorf("problemName(%s) = %q, BuildProblem names it %q", req.Data, got, p.Name)
		}
	}

	coord := startGameWorker(t)
	m, err := NewManager(Config{Workers: 1, CacheDir: t.TempDir(), Coordinator: coord})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	req := fedshap.JobRequest{Data: "femnist", Model: "logreg", N: 4, Algorithm: "exact", Scale: "tiny", Seed: 3}
	for _, pass := range []string{"fleet-served", "warm"} {
		st, err := m.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		fin := waitState(t, m, st.ID, terminal)
		if fin.State != fedshap.JobDone {
			t.Fatalf("%s job: %s (%s)", pass, fin.State, fin.Error)
		}
		if want := experiments.FEMNISTName(4, experiments.LogReg); fin.Problem != want {
			t.Errorf("%s job problem = %q, want %q", pass, fin.Problem, want)
		}
		if hasSpan(t, m, st.ID, "build_problem") {
			t.Errorf("%s job's trace has a build_problem span", pass)
		}
		if pass == "warm" && fin.FreshEvals != 0 {
			t.Errorf("warm job fresh evals = %d, want 0", fin.FreshEvals)
		}
	}
}
