package evalnet

import (
	"context"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fedshap/internal/combin"
)

// startCoordinatorWith serves a tuned coordinator on a loopback listener.
func startCoordinatorWith(t *testing.T, sched SchedulerConfig) (*Coordinator, net.Addr) {
	t.Helper()
	c := NewCoordinatorWith(sched)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = c.Serve(ln) }()
	t.Cleanup(func() { _ = c.Close() })
	return c, ln.Addr()
}

// TestTaskDeadlineReapsHungWorker assigns a task to a worker that never
// answers (its connection stays healthy — the straggler scan alone cannot
// rescue the task on a fleet with no latency history), then attaches a
// healthy worker and checks the deadline reaper moves the task over. The
// hung worker's eventual non-answer must not corrupt the result.
func TestTaskDeadlineReapsHungWorker(t *testing.T) {
	c, addr := startCoordinatorWith(t, SchedulerConfig{
		TaskDeadline:  80 * time.Millisecond,
		SpeculateTick: 10 * time.Millisecond,
		FlapThreshold: -1, // quarantine off: this test kills workers freely
	})

	// The hung worker blocks every evaluation until the test ends.
	unblock := make(chan struct{})
	hungBuild := func(ProblemSpec) (Evaluator, error) {
		return Evaluator{Eval: func(s combin.Coalition) float64 {
			<-unblock
			return additive(s)
		}}, nil
	}
	startWorker(t, addr, "hung", 2, hungBuild)
	// Registered after startWorker: cleanups run LIFO, so the evaluation
	// unblocks before the worker's kill waits for it to drain.
	t.Cleanup(func() { close(unblock) })
	waitWorkers(t, c, 1)

	ctx := context.Background()
	oracle, _ := newSessionOracle(t, c, ctx, 4, additive)

	// Submit before the healthy worker exists, so the task can only land
	// on the hung worker first.
	coal := combin.NewCoalition(1, 2)
	done := make(chan float64, 1)
	go func() { done <- oracle.U(coal) }()
	time.Sleep(20 * time.Millisecond) // let the assignment reach "hung"

	var healthyEvals atomic.Int64
	startWorker(t, addr, "healthy", 2, gameBuilder(&healthyEvals, 0))
	waitWorkers(t, c, 2)

	select {
	case u := <-done:
		if want := additive(coal); u != want {
			t.Fatalf("reaped task returned %v, want %v", u, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("task never escaped the hung worker")
	}
	if got := c.Stats().DeadlineRequeues; got < 1 {
		t.Fatalf("DeadlineRequeues = %d, want >= 1", got)
	}
	if healthyEvals.Load() < 1 {
		t.Fatalf("healthy worker evaluated nothing; the reaped task went elsewhere")
	}
}

// TestFlapQuarantineBenchesAndRejects kills the same named worker past the
// flap threshold, checks the name is benched and refused at attach, then
// waits out the penalty and checks it is welcomed back.
func TestFlapQuarantineBenchesAndRejects(t *testing.T) {
	c, addr := startCoordinatorWith(t, SchedulerConfig{
		FlapThreshold: 2,
		FlapWindow:    time.Minute,
		BenchBase:     400 * time.Millisecond,
		BenchMax:      time.Second,
	})

	for i := 0; i < 2; i++ {
		fw := startWorker(t, addr, "flappy", 1, gameBuilder(nil, 0))
		waitWorkers(t, c, 1)
		fw.kill()
		waitWorkers(t, c, 0)
	}

	stats := c.Stats()
	if len(stats.Quarantined) != 1 || stats.Quarantined[0] != "flappy" {
		t.Fatalf("Quarantined = %v, want [flappy]", stats.Quarantined)
	}

	// An attach attempt under the bench is refused, and Dial returns the
	// coordinator's message.
	w := &Worker{Name: "flappy", Capacity: 1, Build: gameBuilder(nil, 0)}
	if err := w.Dial(context.Background(), addr.String()); err == nil || !strings.Contains(err.Error(), `worker "flappy" quarantined`) {
		t.Fatalf("benched worker's Dial = %v, want the quarantine refusal", err)
	}
	waitRejections(t, c, 1)

	// A differently named worker is unaffected.
	startWorker(t, addr, "steady", 1, gameBuilder(nil, 0))
	waitWorkers(t, c, 1)

	// After the penalty expires the flapping name attaches again.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, benched := c.flaps.Benched("flappy"); !benched {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("bench never expired")
		}
		time.Sleep(25 * time.Millisecond)
	}
	startWorker(t, addr, "flappy", 1, gameBuilder(nil, 0))
	waitWorkers(t, c, 2)
}

// waitRejections polls until the coordinator has counted n quarantine
// rejections (the refusal is recorded on the Attach goroutine).
func waitRejections(t *testing.T, c *Coordinator, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().QuarantineRejections < n {
		if time.Now().After(deadline) {
			t.Fatalf("QuarantineRejections = %d, want >= %d", c.Stats().QuarantineRejections, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
