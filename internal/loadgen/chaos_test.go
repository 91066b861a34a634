package loadgen

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fedshap"
)

// TestChaosResilienceFaults exercises the defense-in-depth fault types
// end to end against real OS processes: a disk-full window (persistence
// fault file) that must flip the daemon to degraded memory-only operation
// and back, a SIGSTOPped worker whose frozen evaluations only the
// task-deadline reaper can rescue, and a flapping worker that must be
// benched by the quarantine and refused at the door when it returns. Six
// invariants must hold: all-terminal, replay-zero-fresh,
// redispatch-accounting, deadline-enforced, quarantine-accounting and
// degraded-mode-recovery.
func TestChaosResilienceFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemon and worker OS processes")
	}
	dir := t.TempDir()
	apiAddr := freeAddr(t)
	workerAddr := freeAddr(t)
	faultFile := filepath.Join(dir, "fault-disk-full")

	// The game delay is deliberately large and every job gets its own
	// fingerprint: warm store hits never touch the fleet, so the traffic
	// must stay fresh for the whole run to guarantee the stall fault
	// freezes a worker that actually has evaluations in flight.
	const gameDelay = "150"
	chaosDir := filepath.Join(dir, "chaos")
	spec := ProcessSpec{
		StartDaemon: func() (*exec.Cmd, error) {
			return spawnHelper(
				"FEDSHAP_LOADTEST_DAEMON_DIR="+chaosDir,
				"FEDSHAP_LOADTEST_API_ADDR="+apiAddr,
				"FEDSHAP_LOADTEST_WORKER_ADDR="+workerAddr,
				"FEDSHAP_LOADTEST_GAME_DELAY_MS="+gameDelay,
				"FEDSHAP_LOADTEST_FAULT_FILE="+faultFile,
				"FEDSHAP_LOADTEST_TASK_DEADLINE_MS=400",
				"FEDSHAP_LOADTEST_FLAP_THRESHOLD=2",
				"FEDSHAP_LOADTEST_BENCH_BASE_MS=3000",
			)
		},
		StartWorker: func(name string) (*exec.Cmd, error) {
			return spawnHelper(
				"FEDSHAP_LOADTEST_COORD="+workerAddr,
				"FEDSHAP_LOADTEST_WORKER_NAME="+name,
				"FEDSHAP_LOADTEST_GAME_DELAY_MS="+gameDelay,
			)
		},
	}

	client := fedshap.NewServiceClient("http://" + apiAddr)
	r, err := NewRunner(Config{
		Client:       client,
		Jobs:         36,
		Concurrency:  6,
		Fingerprints: 36,
		WarmFraction: 0,
		Watchers:     2,
		Seed:         7,
		Timeout:      90 * time.Second,
		Mix:          Mix{Gammas: []int{8, 12}},
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	rep, err := RunChaos(ctx, r, ChaosConfig{
		Spec:          spec,
		Client:        client,
		WorkerNames:   []string{"res-w0", "res-w1"},
		DiskFull:      1,
		Stalls:        1,
		Flaps:         1,
		FaultFile:     faultFile,
		StallFor:      2 * time.Second,
		FlapKillCount: 2,
		SettleTimeout: 45 * time.Second,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	if rep.Chaos == nil {
		t.Fatal("no chaos section in report")
	}
	if rep.Chaos.DiskFulls != 1 || rep.Chaos.Stalls != 1 || rep.Chaos.Flaps != 1 {
		t.Errorf("fault counts = %d disk-full, %d stall, %d flap; want 1/1/1",
			rep.Chaos.DiskFulls, rep.Chaos.Stalls, rep.Chaos.Flaps)
	}
	if rep.Chaos.StallsWithInflight < 1 {
		t.Error("stall never froze verified in-flight work — the deadline invariant was vacuous")
	}
	wantInvariants := map[string]bool{
		"all-terminal": false, "replay-zero-fresh": false,
		"redispatch-accounting": false, "deadline-enforced": false,
		"quarantine-accounting": false, "degraded-mode-recovery": false,
	}
	for _, inv := range rep.Chaos.Invariants {
		if _, known := wantInvariants[inv.Name]; !known {
			t.Errorf("unexpected invariant %q", inv.Name)
			continue
		}
		wantInvariants[inv.Name] = true
		if !inv.OK {
			t.Errorf("invariant %s violated: %s", inv.Name, inv.Detail)
		}
	}
	for name, seen := range wantInvariants {
		if !seen {
			t.Errorf("invariant %s was not checked", name)
		}
	}
	if rep.Submitted != 36 || rep.Done != 36 {
		t.Errorf("load = %d submitted, %d done; want 36/36", rep.Submitted, rep.Done)
	}
	t.Logf("resilience chaos report:\n%s", rep.Summary())
}

// TestChaosRecoveryInvariants is the fault-injection end-to-end: a real
// daemon OS process with a two-worker fleet takes a mixed load while the
// controller SIGKILLs a worker mid-evaluation, severs every coordinator
// connection, SIGKILLs and relaunches the daemon itself over the same
// journal, then kills a second worker — and the four recovery invariants
// must hold: every job terminal, replay fully warm, reports bit-identical
// to an undisturbed control daemon, and the worker-death requeue counter
// accounting for every induced death with work in flight.
func TestChaosRecoveryInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemon and worker OS processes")
	}
	dir := t.TempDir()
	apiAddr := freeAddr(t)
	workerAddr := freeAddr(t)
	controlAddr := freeAddr(t)

	proxy, err := NewProxy("127.0.0.1:0", workerAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	const gameDelay = "25"
	chaosDir := filepath.Join(dir, "chaos")
	controlDir := filepath.Join(dir, "control")
	spec := ProcessSpec{
		StartDaemon: func() (*exec.Cmd, error) {
			return spawnHelper(
				"FEDSHAP_LOADTEST_DAEMON_DIR="+chaosDir,
				"FEDSHAP_LOADTEST_API_ADDR="+apiAddr,
				"FEDSHAP_LOADTEST_WORKER_ADDR="+workerAddr,
				"FEDSHAP_LOADTEST_GAME_DELAY_MS="+gameDelay,
			)
		},
		StartWorker: func(name string) (*exec.Cmd, error) {
			return spawnHelper(
				"FEDSHAP_LOADTEST_COORD="+proxy.Addr(),
				"FEDSHAP_LOADTEST_WORKER_NAME="+name,
				"FEDSHAP_LOADTEST_GAME_DELAY_MS="+gameDelay,
			)
		},
		StartControl: func() (*exec.Cmd, error) {
			return spawnHelper(
				"FEDSHAP_LOADTEST_DAEMON_DIR="+controlDir,
				"FEDSHAP_LOADTEST_API_ADDR="+controlAddr,
			)
		},
	}

	client := fedshap.NewServiceClient("http://" + apiAddr)
	r, err := NewRunner(Config{
		Client:       client,
		Jobs:         36,
		Concurrency:  6,
		BatchSize:    3,
		Fingerprints: 5,
		WarmFraction: 0.25,
		Watchers:     3,
		Seed:         11,
		Timeout:      90 * time.Second,
		Mix:          Mix{Gammas: []int{5, 9}},
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	rep, err := RunChaos(ctx, r, ChaosConfig{
		Spec:          spec,
		Client:        client,
		ControlClient: fedshap.NewServiceClient("http://" + controlAddr),
		WorkerNames:   []string{"chaos-w0", "chaos-w1"},
		Proxy:         proxy,
		DaemonKills:   1,
		WorkerKills:   2,
		Partitions:    1,
		SettleTimeout: 45 * time.Second,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	if rep.Chaos == nil {
		t.Fatal("no chaos section in report")
	}
	if rep.Chaos.DaemonKills != 1 || rep.Chaos.WorkerKills != 2 || rep.Chaos.Partitions != 1 {
		t.Errorf("fault counts = %d daemon, %d worker, %d partition; want 1/2/1",
			rep.Chaos.DaemonKills, rep.Chaos.WorkerKills, rep.Chaos.Partitions)
	}
	wantInvariants := map[string]bool{
		"all-terminal": false, "replay-zero-fresh": false,
		"control-bit-identical": false, "redispatch-accounting": false,
	}
	for _, inv := range rep.Chaos.Invariants {
		if _, known := wantInvariants[inv.Name]; !known {
			t.Errorf("unexpected invariant %q", inv.Name)
			continue
		}
		wantInvariants[inv.Name] = true
		if !inv.OK {
			t.Errorf("invariant %s violated: %s", inv.Name, inv.Detail)
		}
	}
	for name, seen := range wantInvariants {
		if !seen {
			t.Errorf("invariant %s was not checked", name)
		}
	}
	if len(rep.Chaos.Violations()) != 0 {
		t.Errorf("Violations() = %v", rep.Chaos.Violations())
	}
	if rep.Submitted != 36 || rep.Done != 36 {
		t.Errorf("load = %d submitted, %d done; want 36/36", rep.Submitted, rep.Done)
	}
	// The report is a full load report too: percentiles and throughput
	// survive the chaos.
	if rep.JobLatency.Count != 36 || rep.Throughput <= 0 {
		t.Errorf("latency population %d, throughput %v", rep.JobLatency.Count, rep.Throughput)
	}
	summary := rep.Summary()
	if len(summary) == 0 {
		t.Error("empty summary")
	}
	t.Logf("chaos report:\n%s", summary)
}

// TestWaitHealthy: the daemon wait returns once the API answers, gives up
// after its timeout with the last probe's error, and returns at once with
// the context's error when the context is done.
func TestWaitHealthy(t *testing.T) {
	var probes, healthyAfter atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if probes.Add(1) <= healthyAfter.Load() {
			http.Error(w, "starting", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	client := fedshap.NewServiceClient(srv.URL)

	healthyAfter.Store(2)
	if err := WaitHealthy(context.Background(), client, 10*time.Second); err != nil || probes.Load() != 3 {
		t.Fatalf("WaitHealthy = %v after %d probes, want nil after 3", err, probes.Load())
	}

	probes.Store(0)
	healthyAfter.Store(1 << 30)
	if err := WaitHealthy(context.Background(), client, 250*time.Millisecond); err == nil || !strings.Contains(err.Error(), "not healthy after 250ms") {
		t.Fatalf("WaitHealthy on a daemon that never answers = %v, want a timeout error", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := WaitHealthy(ctx, client, time.Minute); !errors.Is(err, context.Canceled) || time.Since(start) > 10*time.Second {
		t.Fatalf("WaitHealthy on a done context = %v after %v, want context.Canceled at once", err, time.Since(start))
	}
}

// TestWaitFleet: the fleet wait returns once enough workers are listed,
// gives up after its timeout naming the count it waited for, and returns
// the context's error at once when the context is done, without waiting
// out the timeout.
func TestWaitFleet(t *testing.T) {
	var probes, attached atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		probes.Add(1)
		w.Header().Set("Content-Type", "application/json")
		// One more worker attaches on each probe.
		workers := strings.Repeat(`{"name":"w"},`, max(int(attached.Add(1)), 0))
		w.Write([]byte("[" + strings.TrimSuffix(workers, ",") + "]"))
	}))
	defer srv.Close()
	client := fedshap.NewServiceClient(srv.URL)

	if err := WaitFleet(context.Background(), client, 0, time.Minute); err != nil || probes.Load() != 0 {
		t.Fatalf("WaitFleet for no workers = %v after %d probes, want nil after none", err, probes.Load())
	}
	if err := WaitFleet(context.Background(), client, 3, 10*time.Second); err != nil || probes.Load() != 3 {
		t.Fatalf("WaitFleet = %v after %d probes, want nil after 3", err, probes.Load())
	}

	attached.Store(-1 << 20)
	if err := WaitFleet(context.Background(), client, 2, 250*time.Millisecond); err == nil || !strings.Contains(err.Error(), "did not reach 2 workers after 250ms") {
		t.Fatalf("WaitFleet on a fleet that never attaches = %v, want a timeout error", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := WaitFleet(ctx, client, 2, time.Minute); !errors.Is(err, context.Canceled) || time.Since(start) > 10*time.Second {
		t.Fatalf("WaitFleet on a done context = %v after %v, want context.Canceled at once", err, time.Since(start))
	}
}
