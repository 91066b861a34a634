package evalnet

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"fedshap"
	"fedshap/internal/combin"
)

// newLocalListener opens a loopback listener for tests that build their
// coordinator with explicit scheduler tuning.
func newLocalListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// TestStragglerRedispatch runs a deliberately lopsided fleet — one fast
// worker, one slow — with speculation enabled: near the end of the job the
// slow worker's in-flight coalitions must be speculatively re-dispatched
// to the idle fast worker, the first result wins, and the duplicate that
// the straggler eventually answers is discarded without double-charging
// the budget meter or the fleet's completion accounting.
func TestStragglerRedispatch(t *testing.T) {
	c := NewCoordinatorWith(SchedulerConfig{
		SpeculateFactor: 1.5,
		SpeculateMinAge: 10 * time.Millisecond,
		SpeculateTick:   5 * time.Millisecond,
	})
	ln := newLocalListener(t)
	go func() { _ = c.Serve(ln) }()
	t.Cleanup(func() { _ = c.Close() })
	addr := ln.Addr()

	var fast, slow atomic.Int64
	startWorker(t, addr, "fast", 2, gameBuilder(&fast, time.Millisecond))
	startWorker(t, addr, "slow", 2, gameBuilder(&slow, 80*time.Millisecond))
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
		t.Errorf("fresh evals = %d, want %d (lost or double-counted work)", oracle.Evals(), len(all))
	}
	if localCalls.Load() != 0 {
		t.Errorf("local fallback ran %d times with a healthy fleet", localCalls.Load())
	}

	// Let the straggler's superseded duplicates finish and stream their
	// stale results back — the fleet is idle once no worker holds a task —
	// then check that the accounting did not move.
	busy := func(m fedshap.FleetMetrics) (n int) {
		for _, w := range m.Workers {
			n += w.InFlight
		}
		return n
	}
	stats := c.Stats()
	for deadline := time.Now().Add(5 * time.Second); busy(stats) > 0; stats = c.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("%d superseded evaluations still in flight after 5s", busy(stats))
		}
		time.Sleep(2 * time.Millisecond)
	}
	if stats.Redispatches == 0 {
		t.Error("no speculative re-dispatch despite an 80x straggler")
	}
	// The duplicate must actually reach the relief worker and answer
	// first — a re-dispatch that is counted but never flushed to the wire
	// would leave wins at zero (regression guard: speculative batches
	// were once dropped when the straggler scan found no further victim).
	if stats.RedispatchWins == 0 {
		t.Error("speculative copies never beat an 80x straggler to the result")
	}
	var completed int64
	for _, w := range stats.Workers {
		completed += w.Completed
		if w.Name == "slow" && w.EWMAMillis < 1 {
			t.Errorf("slow worker EWMA = %vms, want >= 1ms", w.EWMAMillis)
		}
	}
	if completed != int64(len(all)) {
		t.Errorf("fleet completed %d evaluations, want %d (duplicates must be discarded, not counted)",
			completed, len(all))
	}
	if fast.Load()+slow.Load() < int64(len(all)) {
		t.Errorf("workers trained %d coalitions, want >= %d", fast.Load()+slow.Load(), len(all))
	}
}

// TestAdaptivePickPrefersFastWorker seeds two workers with very different
// observed latencies and checks the scheduler routes the bulk of a
// sequential workload to the faster one.
func TestAdaptivePickPrefersFastWorker(t *testing.T) {
	c, addr := startCoordinator(t)
	var fast, slow atomic.Int64
	startWorker(t, addr, "fast", 1, gameBuilder(&fast, time.Millisecond))
	startWorker(t, addr, "slow", 1, gameBuilder(&slow, 40*time.Millisecond))
	waitWorkers(t, c, 2)

	n := 6
	oracle, _ := newSessionOracle(t, c, context.Background(), n, additive)

	// One evaluation at a time: after the warm-up samples, expected
	// completion time should send nearly everything to the fast worker.
	all := allCoalitions(n)
	if err := oracle.Prefetch(context.Background(), all, 2); err != nil {
		t.Fatal(err)
	}
	if fast.Load() <= slow.Load() {
		t.Errorf("latency-aware scheduling sent %d to the fast worker and %d to the 40x slower one",
			fast.Load(), slow.Load())
	}
}
