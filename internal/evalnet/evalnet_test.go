package evalnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"fedshap/internal/combin"
	"fedshap/internal/utility"
)

// additive is the test game U(S) = Σ_{i∈S}(i+1): deterministic, cheap, and
// wrong answers are impossible to miss.
func additive(s combin.Coalition) float64 {
	var u float64
	for _, i := range s.Members() {
		u += float64(i + 1)
	}
	return u
}

// gameBuilder builds a worker eval for the additive game, counting
// evaluations and optionally slowing each one down.
func gameBuilder(evals *atomic.Int64, delay time.Duration) func(ProblemSpec) (Evaluator, error) {
	return func(ProblemSpec) (Evaluator, error) {
		return Evaluator{Eval: func(s combin.Coalition) float64 {
			if evals != nil {
				evals.Add(1)
			}
			if delay > 0 {
				time.Sleep(delay)
			}
			return additive(s)
		}}, nil
	}
}

// startCoordinator serves a coordinator on a loopback TCP listener.
func startCoordinator(t *testing.T) (*Coordinator, net.Addr) {
	t.Helper()
	c := NewCoordinator()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = c.Serve(ln) }()
	t.Cleanup(func() { _ = c.Close() })
	return c, ln.Addr()
}

// fleetWorker is a test worker with a kill switch.
type fleetWorker struct {
	cancel context.CancelFunc
	done   chan struct{}
}

// kill severs the worker's connection mid-flight, as a crashed process
// would.
func (fw *fleetWorker) kill() {
	fw.cancel()
	<-fw.done
}

// startWorker attaches a worker to the coordinator and serves until killed.
func startWorker(t *testing.T, addr net.Addr, name string, capacity int, build func(ProblemSpec) (Evaluator, error)) *fleetWorker {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	fw := &fleetWorker{cancel: cancel, done: make(chan struct{})}
	w := &Worker{Name: name, Capacity: capacity, Build: build}
	go func() {
		defer close(fw.done)
		_ = w.Dial(ctx, addr.String())
	}()
	t.Cleanup(fw.kill)
	return fw
}

// waitWorkers polls until the fleet reaches size n.
func waitWorkers(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.WorkerCount() != n {
		if time.Now().After(deadline) {
			t.Fatalf("fleet never reached %d workers (have %d)", n, c.WorkerCount())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// newSessionOracle wires a session-backed oracle the way valserve does:
// WrapEval swaps the eval for Session.Eval with the original as fallback.
func newSessionOracle(t *testing.T, c *Coordinator, ctx context.Context, n int, local utility.EvalFunc) (*utility.Oracle, *Session) {
	t.Helper()
	oracle := utility.NewOracle(n, local)
	var sess *Session
	oracle.WrapEval(func(inner utility.EvalFunc) utility.EvalFunc {
		sess = c.NewSessionWith(ctx, SessionConfig{
			Spec:  ProblemSpec{ID: fmt.Sprintf("spec-%s", t.Name()), N: n},
			Local: inner, LocalLimit: 8,
		})
		return sess.Eval
	})
	t.Cleanup(sess.Close)
	return oracle, sess
}

func allCoalitions(n int) []combin.Coalition {
	var all []combin.Coalition
	combin.AllSubsets(n, func(s combin.Coalition) { all = append(all, s) })
	return all
}

// TestDistributedPrefetch fans a full power set out across two TCP workers
// through the oracle's Prefetch pool and checks every utility, the budget
// accounting, and that both workers actually shared the load with the
// local fallback never consulted.
func TestDistributedPrefetch(t *testing.T) {
	c, addr := startCoordinator(t)
	var w1, w2 atomic.Int64
	startWorker(t, addr, "w1", 4, gameBuilder(&w1, 0))
	startWorker(t, addr, "w2", 4, gameBuilder(&w2, 0))
	waitWorkers(t, c, 2)

	var localCalls atomic.Int64
	n := 6
	oracle, _ := newSessionOracle(t, c, context.Background(), n, func(s combin.Coalition) float64 {
		localCalls.Add(1)
		return additive(s)
	})

	all := allCoalitions(n)
	if err := oracle.Prefetch(context.Background(), all, 8); err != nil {
		t.Fatal(err)
	}
	for _, s := range all {
		if got := oracle.U(s); got != additive(s) {
			t.Fatalf("U(%s) = %v, want %v", s, got, additive(s))
		}
	}
	if oracle.Evals() != len(all) {
		t.Errorf("fresh evals = %d, want %d", oracle.Evals(), len(all))
	}
	if localCalls.Load() != 0 {
		t.Errorf("local fallback ran %d times with a healthy fleet", localCalls.Load())
	}
	if w1.Load() == 0 || w2.Load() == 0 {
		t.Errorf("load not distributed: w1=%d w2=%d", w1.Load(), w2.Load())
	}
	if w1.Load()+w2.Load() != int64(len(all)) {
		t.Errorf("workers evaluated %d coalitions, want %d", w1.Load()+w2.Load(), len(all))
	}
	infos := c.Workers()
	if len(infos) != 2 || infos[0].Completed+infos[1].Completed != int64(len(all)) {
		t.Errorf("fleet stats = %+v", infos)
	}
}

// TestWorkerDeathRequeue kills one of two workers mid-job: its in-flight
// coalitions must be requeued to the survivor, the job must finish with
// every utility correct, and nothing may be double-charged or fall back to
// local evaluation.
func TestWorkerDeathRequeue(t *testing.T) {
	c, addr := startCoordinator(t)
	var w1, w2 atomic.Int64
	victim := startWorker(t, addr, "victim", 2, gameBuilder(&w1, 2*time.Millisecond))
	startWorker(t, addr, "survivor", 2, gameBuilder(&w2, 2*time.Millisecond))
	waitWorkers(t, c, 2)

	var localCalls atomic.Int64
	n := 6
	oracle, _ := newSessionOracle(t, c, context.Background(), n, func(s combin.Coalition) float64 {
		localCalls.Add(1)
		return additive(s)
	})

	// Kill the victim once it has demonstrably taken work.
	go func() {
		deadline := time.Now().Add(10 * time.Second)
		for w1.Load() < 3 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		victim.kill()
	}()

	all := allCoalitions(n)
	if err := oracle.Prefetch(context.Background(), all, 4); err != nil {
		t.Fatal(err)
	}
	for _, s := range all {
		if got := oracle.U(s); got != additive(s) {
			t.Fatalf("U(%s) = %v, want %v", s, got, additive(s))
		}
	}
	if oracle.Evals() != len(all) {
		t.Errorf("fresh evals = %d, want %d (lost or double-counted work)", oracle.Evals(), len(all))
	}
	if localCalls.Load() != 0 {
		t.Errorf("local fallback ran %d times with a surviving worker", localCalls.Load())
	}
	if c.WorkerCount() != 1 {
		t.Errorf("fleet size after kill = %d, want 1", c.WorkerCount())
	}
	if w2.Load() == 0 {
		t.Error("survivor evaluated nothing")
	}
}

// TestAllWorkersDieLocalFallback kills the entire fleet mid-job: every
// remaining coalition must complete through the local fallback.
func TestAllWorkersDieLocalFallback(t *testing.T) {
	c, addr := startCoordinator(t)
	var we atomic.Int64
	only := startWorker(t, addr, "only", 2, gameBuilder(&we, 2*time.Millisecond))
	waitWorkers(t, c, 1)

	var localCalls atomic.Int64
	n := 5
	oracle, _ := newSessionOracle(t, c, context.Background(), n, func(s combin.Coalition) float64 {
		localCalls.Add(1)
		return additive(s)
	})

	go func() {
		deadline := time.Now().Add(10 * time.Second)
		for we.Load() < 3 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		only.kill()
	}()

	all := allCoalitions(n)
	if err := oracle.Prefetch(context.Background(), all, 4); err != nil {
		t.Fatal(err)
	}
	for _, s := range all {
		if got := oracle.U(s); got != additive(s) {
			t.Fatalf("U(%s) = %v, want %v", s, got, additive(s))
		}
	}
	if oracle.Evals() != len(all) {
		t.Errorf("fresh evals = %d, want %d", oracle.Evals(), len(all))
	}
	if localCalls.Load() == 0 {
		t.Error("local fallback never ran after the fleet died")
	}
}

// TestNoWorkersEvaluatesLocally checks a coordinator with an empty fleet
// routes every evaluation straight to the local function.
func TestNoWorkersEvaluatesLocally(t *testing.T) {
	c, _ := startCoordinator(t)
	var localCalls atomic.Int64
	oracle, _ := newSessionOracle(t, c, context.Background(), 4, func(s combin.Coalition) float64 {
		localCalls.Add(1)
		return additive(s)
	})
	s := combin.NewCoalition(0, 2)
	if got := oracle.U(s); got != additive(s) {
		t.Fatalf("U = %v, want %v", got, additive(s))
	}
	if localCalls.Load() != 1 {
		t.Errorf("local evals = %d, want 1", localCalls.Load())
	}
}

// TestBuildErrorFallsBackLocal: a worker that cannot rebuild the problem
// answers with errors; the session must transparently evaluate locally.
func TestBuildErrorFallsBackLocal(t *testing.T) {
	c, addr := startCoordinator(t)
	startWorker(t, addr, "broken", 2, func(ProblemSpec) (Evaluator, error) {
		return Evaluator{}, errors.New("no such dataset on this machine")
	})
	waitWorkers(t, c, 1)

	var localCalls atomic.Int64
	oracle, _ := newSessionOracle(t, c, context.Background(), 4, func(s combin.Coalition) float64 {
		localCalls.Add(1)
		return additive(s)
	})
	s := combin.NewCoalition(1, 3)
	if got := oracle.U(s); got != additive(s) {
		t.Fatalf("U = %v, want %v", got, additive(s))
	}
	if localCalls.Load() != 1 {
		t.Errorf("local evals = %d, want 1", localCalls.Load())
	}
}

// TestCancellationPropagates cancels a job mid-prefetch: blocked Eval
// calls abort with the oracle's *utility.Abort, the worker is told to skip
// the spec's queued coalitions, and evaluation activity settles at no more
// than the in-flight trainings that were already running.
func TestCancellationPropagates(t *testing.T) {
	c, addr := startCoordinator(t)
	var we atomic.Int64
	startWorker(t, addr, "w", 2, gameBuilder(&we, 10*time.Millisecond))
	waitWorkers(t, c, 1)

	ctx, cancel := context.WithCancel(context.Background())
	n := 6
	oracle, sess := newSessionOracle(t, c, ctx, n, additive)

	go func() {
		deadline := time.Now().Add(10 * time.Second)
		for we.Load() < 3 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()

	err := oracle.Prefetch(ctx, allCoalitions(n), 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Prefetch err = %v, want context.Canceled", err)
	}

	// A fresh Eval on the cancelled session aborts with the oracle's
	// cancellation contract.
	func() {
		defer func() {
			var a *utility.Abort
			if r := recover(); r == nil {
				t.Error("Eval on cancelled session did not abort")
			} else if err, ok := r.(error); !ok || !errors.As(err, &a) {
				t.Errorf("Eval panicked with %v, want *utility.Abort", r)
			}
		}()
		sess.Eval(combin.NewCoalition(0))
	}()

	// The worker stops evaluating: at most its in-flight trainings finish
	// after the cancel; queued coalitions are skipped.
	time.Sleep(60 * time.Millisecond)
	settled := we.Load()
	time.Sleep(60 * time.Millisecond)
	if got := we.Load(); got != settled {
		t.Errorf("worker kept evaluating after cancellation: %d → %d", settled, got)
	}
	if settled == int64(len(allCoalitions(n))) {
		t.Error("worker evaluated the entire plan despite cancellation")
	}
}

// TestCoordinatorCloseFallsBack: closing the coordinator mid-job hands all
// queued work back to local evaluation rather than blocking callers.
func TestCoordinatorCloseFallsBack(t *testing.T) {
	c, addr := startCoordinator(t)
	var we atomic.Int64
	startWorker(t, addr, "w", 1, gameBuilder(&we, 2*time.Millisecond))
	waitWorkers(t, c, 1)

	var localCalls atomic.Int64
	n := 5
	oracle, _ := newSessionOracle(t, c, context.Background(), n, func(s combin.Coalition) float64 {
		localCalls.Add(1)
		return additive(s)
	})
	go func() {
		deadline := time.Now().Add(10 * time.Second)
		for we.Load() < 2 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		_ = c.Close()
	}()
	all := allCoalitions(n)
	if err := oracle.Prefetch(context.Background(), all, 4); err != nil {
		t.Fatal(err)
	}
	for _, s := range all {
		if got := oracle.U(s); got != additive(s) {
			t.Fatalf("U(%s) = %v, want %v", s, got, additive(s))
		}
	}
	if localCalls.Load() == 0 {
		t.Error("local fallback never ran after coordinator shutdown")
	}
}
