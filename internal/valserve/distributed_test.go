package valserve

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"testing"
	"time"

	"fedshap"
	"fedshap/internal/combin"
	"fedshap/internal/evalnet"
)

// TestMain doubles as the entry point for spawned helper processes: with
// FEDSHAP_TEST_WORKER_ADDR set the test binary is a fedvalworker-style
// daemon, with FEDSHAP_TEST_DAEMON_DIR it is a fedvald-style daemon (see
// recovery_test.go). This is how the distributed and crash-recovery tests
// exercise real OS processes over loopback TCP without shipping a
// prebuilt binary.
func TestMain(m *testing.M) {
	if addr := os.Getenv("FEDSHAP_TEST_WORKER_ADDR"); addr != "" {
		runTestWorker(addr)
		os.Exit(0)
	}
	if dir := os.Getenv("FEDSHAP_TEST_DAEMON_DIR"); dir != "" {
		runTestDaemon(dir)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runTestWorker serves evaluations until the coordinator link drops. The
// default problem builder is the production one (WorkerEvaluator, real
// FL training); FEDSHAP_TEST_WORKER_GAME_DELAY_MS switches to the additive
// test game used by the kill/cancel tests.
func runTestWorker(addr string) {
	capacity, _ := strconv.Atoi(os.Getenv("FEDSHAP_TEST_WORKER_CAP"))
	build := WorkerEvaluator
	if ms := os.Getenv("FEDSHAP_TEST_WORKER_GAME_DELAY_MS"); ms != "" {
		delay, _ := strconv.Atoi(ms)
		build = func(evalnet.ProblemSpec) (evalnet.Evaluator, error) {
			return evalnet.Evaluator{Eval: func(s combin.Coalition) float64 {
				time.Sleep(time.Duration(delay) * time.Millisecond)
				var u float64
				for _, i := range s.Members() {
					u += float64(i + 1)
				}
				return u
			}}, nil
		}
	}
	w := &evalnet.Worker{
		Name:     os.Getenv("FEDSHAP_TEST_WORKER_NAME"),
		Capacity: capacity,
		Build:    build,
	}
	_ = w.Dial(context.Background(), addr)
}

// startFleetCoordinator serves an evalnet coordinator on loopback TCP.
func startFleetCoordinator(t *testing.T) (*evalnet.Coordinator, string) {
	t.Helper()
	coord := evalnet.NewCoordinator()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = coord.Serve(ln) }()
	t.Cleanup(func() { _ = coord.Close() })
	return coord, ln.Addr().String()
}

// spawnWorkerProcess re-executes the test binary as a worker process
// dialling addr, returning the process handle for mid-job kills.
func spawnWorkerProcess(t *testing.T, addr, name string, capacity, gameDelayMS int) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(),
		"FEDSHAP_TEST_WORKER_ADDR="+addr,
		"FEDSHAP_TEST_WORKER_NAME="+name,
		fmt.Sprintf("FEDSHAP_TEST_WORKER_CAP=%d", capacity),
	)
	if gameDelayMS > 0 {
		cmd.Env = append(cmd.Env, fmt.Sprintf("FEDSHAP_TEST_WORKER_GAME_DELAY_MS=%d", gameDelayMS))
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})
	return cmd
}

func waitFleet(t *testing.T, coord *evalnet.Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for coord.WorkerCount() != n {
		if time.Now().After(deadline) {
			t.Fatalf("fleet never reached %d workers (have %d)", n, coord.WorkerCount())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDistributedJobBitIdentical is the acceptance end-to-end: one
// valuation job with real federated training fanned out across two worker
// OS processes over loopback TCP must produce bit-identical Shapley values
// and identical budget accounting to the in-process oracle.
func TestDistributedJobBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("trains real FL models in worker subprocesses")
	}
	req := fedshap.JobRequest{
		Data:      "synthetic",
		Model:     "logreg",
		N:         5,
		Algorithm: "exact", // prefetchable: the power set fans out concurrently
		Scale:     "tiny",
		Seed:      7,
	}

	// Baseline: the same job evaluated entirely in-process.
	base, err := NewManager(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	st, err := base.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	baseline := waitState(t, base, st.ID, terminal)
	if baseline.State != fedshap.JobDone {
		t.Fatalf("baseline state = %s (%s)", baseline.State, baseline.Error)
	}

	// Distributed: two worker processes, each rebuilding the problem from
	// the spec and training locally.
	coord, addr := startFleetCoordinator(t)
	spawnWorkerProcess(t, addr, "proc-a", 2, 0)
	spawnWorkerProcess(t, addr, "proc-b", 2, 0)
	waitFleet(t, coord, 2)

	m, err := NewManager(Config{Workers: 1, Coordinator: coord})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st, err = m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	dist := waitState(t, m, st.ID, terminal)
	if dist.State != fedshap.JobDone {
		t.Fatalf("distributed state = %s (%s)", dist.State, dist.Error)
	}
	if dist.RemoteWorkers != 2 {
		t.Errorf("remote workers = %d, want 2", dist.RemoteWorkers)
	}
	if len(dist.Report.Values) != req.N {
		t.Fatalf("report has %d values, want %d", len(dist.Report.Values), req.N)
	}
	for i := range baseline.Report.Values {
		if baseline.Report.Values[i] != dist.Report.Values[i] {
			t.Errorf("value[%d]: in-process %v != distributed %v",
				i, baseline.Report.Values[i], dist.Report.Values[i])
		}
	}
	if baseline.FreshEvals != dist.FreshEvals {
		t.Errorf("fresh evals: in-process %d != distributed %d", baseline.FreshEvals, dist.FreshEvals)
	}

	// Both processes trained, and between them they did exactly the fresh
	// work — nothing fell back to local evaluation, nothing ran twice.
	infos := coord.Workers()
	if len(infos) != 2 {
		t.Fatalf("fleet listing has %d workers, want 2", len(infos))
	}
	var total int64
	for _, w := range infos {
		if w.Completed == 0 {
			t.Errorf("worker %s evaluated nothing", w.Name)
		}
		total += w.Completed
	}
	if total != int64(dist.FreshEvals) {
		t.Errorf("fleet completed %d evaluations, fresh evals %d", total, dist.FreshEvals)
	}
}

// TestDistributedWorkerKillRequeue kills one of two worker processes in
// the middle of a job: the coordinator must requeue its in-flight
// coalitions onto the survivor and the job must still finish with exact
// values and no lost or double-counted evaluations.
func TestDistributedWorkerKillRequeue(t *testing.T) {
	coord, addr := startFleetCoordinator(t)
	victim := spawnWorkerProcess(t, addr, "victim", 2, 8)
	spawnWorkerProcess(t, addr, "survivor", 2, 8)
	waitFleet(t, coord, 2)

	m, err := NewManager(Config{
		Workers:      1,
		Coordinator:  coord,
		BuildProblem: gameBuilder(8*time.Millisecond, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	n := 8
	st, err := m.Submit(fedshap.JobRequest{N: n, Algorithm: "exact"})
	if err != nil {
		t.Fatal(err)
	}
	// Kill the victim once the job has demonstrably made remote progress.
	waitState(t, m, st.ID, func(s *fedshap.JobStatus) bool { return s.FreshEvals >= 20 })
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}

	fin := waitState(t, m, st.ID, terminal)
	if fin.State != fedshap.JobDone {
		t.Fatalf("state after worker kill = %s (%s)", fin.State, fin.Error)
	}
	// The additive game's Shapley values are i+1 (up to float summation
	// error); any lost or duplicated marginal would show up here or in the
	// budget accounting.
	for i, v := range fin.Report.Values {
		if diff := v - float64(i+1); diff > 1e-6 || diff < -1e-6 {
			t.Errorf("value[%d] = %v, want %d", i, v, i+1)
		}
	}
	want := 1 << uint(n)
	if fin.FreshEvals != want || fin.Report.Evaluations != want {
		t.Errorf("fresh evals = %d, report evals = %d, want %d (lost or double-counted work)",
			fin.FreshEvals, fin.Report.Evaluations, want)
	}
	if coord.WorkerCount() != 1 {
		t.Errorf("fleet size after kill = %d, want 1", coord.WorkerCount())
	}

	// The job's trace must record the requeue: a redispatch event with
	// reason worker-death naming the dead worker, plus per-worker dispatch
	// spans for both fleet members. Dispatch spans flush when the job's
	// session closes — just after the terminal state becomes visible — so
	// poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	var redispatch, dispatches int
	for time.Now().Before(deadline) {
		tr, err := m.Trace(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		redispatch, dispatches = 0, 0
		for _, sp := range tr.Spans {
			switch sp.Name {
			case "redispatch":
				if sp.Attrs["reason"] == "worker-death" && sp.Attrs["worker"] == "victim" {
					redispatch++
				}
			case "dispatch":
				dispatches++
			}
		}
		if redispatch > 0 && dispatches == 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if redispatch == 0 {
		t.Error("trace has no redispatch span with reason=worker-death for the killed worker")
	}
	if dispatches != 2 {
		t.Errorf("trace has %d dispatch spans, want one per fleet worker (2)", dispatches)
	}

	// And the scrape shows the same event: the worker-death redispatch
	// counter is nonzero on the Prometheus endpoint.
	samples := scrapeProm(t, NewHandler(m))
	if got := samples[`fedvald_fleet_redispatch_total{reason="worker-death"}`]; got == 0 {
		t.Error(`scrape: fedvald_fleet_redispatch_total{reason="worker-death"} = 0 after a worker kill`)
	}
}

// TestDistributedStragglerRedispatch is the adaptive-scheduler acceptance
// end-to-end: one worker process is deliberately ~60x slower than the
// other, speculation is enabled, and the job must still produce values and
// fresh-eval counts bit-identical to the in-process baseline — the
// straggler's superseded duplicates are discarded, never double-charged.
// GET /metrics must report the re-dispatches and, after a warm resubmit,
// a nonzero cache-hit ratio.
func TestDistributedStragglerRedispatch(t *testing.T) {
	// Aggressive speculation tuning so the test straggler is relieved
	// within milliseconds instead of the production-scale defaults.
	coord := evalnet.NewCoordinatorWith(evalnet.SchedulerConfig{
		SpeculateFactor: 1.5,
		SpeculateMinAge: 10 * time.Millisecond,
		SpeculateTick:   5 * time.Millisecond,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = coord.Serve(ln) }()
	t.Cleanup(func() { _ = coord.Close() })
	addr := ln.Addr().String()
	spawnWorkerProcess(t, addr, "fast", 2, 1)
	spawnWorkerProcess(t, addr, "slow", 2, 60)
	waitFleet(t, coord, 2)

	req := fedshap.JobRequest{N: 7, Algorithm: "exact", Seed: 5}

	// Baseline: the same job evaluated entirely in-process.
	base, err := NewManager(Config{Workers: 1, BuildProblem: gameBuilder(0, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	st, err := base.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	baseline := waitState(t, base, st.ID, terminal)
	if baseline.State != fedshap.JobDone {
		t.Fatalf("baseline state = %s (%s)", baseline.State, baseline.Error)
	}

	// Distributed, over the full daemon HTTP surface so /metrics is
	// exercised exactly as an operator sees it.
	client, _ := startDaemon(t, Config{
		Workers:      1,
		CacheDir:     t.TempDir(),
		Coordinator:  coord,
		BuildProblem: gameBuilder(0, nil),
	})
	ctx := context.Background()
	st2, err := client.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := client.Wait(ctx, st2.ID, 5*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dist.State != fedshap.JobDone {
		t.Fatalf("distributed state = %s (%s)", dist.State, dist.Error)
	}
	for i := range baseline.Report.Values {
		if baseline.Report.Values[i] != dist.Report.Values[i] {
			t.Errorf("value[%d]: in-process %v != distributed-with-speculation %v",
				i, baseline.Report.Values[i], dist.Report.Values[i])
		}
	}
	if baseline.FreshEvals != dist.FreshEvals {
		t.Errorf("fresh evals: in-process %d != distributed %d (duplicates double-charged?)",
			baseline.FreshEvals, dist.FreshEvals)
	}
	stats := coord.Stats()
	if stats.Redispatches == 0 {
		t.Error("no speculative re-dispatch despite a 60x straggler")
	}
	var completed int64
	for _, w := range stats.Workers {
		completed += w.Completed
	}
	if completed != int64(dist.FreshEvals) {
		t.Errorf("fleet completed %d evaluations, fresh evals %d (duplicate results must be discarded)",
			completed, dist.FreshEvals)
	}

	// Resubmit warm: zero fresh work, and /metrics shows both the
	// scheduler and the cache paying off.
	st3, err := client.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := client.Wait(ctx, st3.ID, 5*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.State != fedshap.JobDone || warm.FreshEvals != 0 || warm.WarmedCoalitions == 0 {
		t.Fatalf("warm rerun = %+v, want done with zero fresh evals", warm)
	}
	mt, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v := mt[`fedvald_fleet_redispatch_total{reason="straggler"}`]; v == 0 {
		t.Errorf("straggler re-dispatch series = %v, want nonzero", v)
	}
	if warmed, ratio := mt[`fedvald_evaluations_total{kind="warmed"}`], mt["fedvald_cache_hit_ratio"]; warmed == 0 || ratio <= 0 {
		t.Errorf("warmed evaluations %v, cache hit ratio %v: want both nonzero", warmed, ratio)
	}
}

// TestDistributedCancel cancels a job running on remote worker processes
// and checks it terminates promptly without consuming the whole budget.
func TestDistributedCancel(t *testing.T) {
	coord, addr := startFleetCoordinator(t)
	spawnWorkerProcess(t, addr, "w", 2, 15)
	waitFleet(t, coord, 1)

	m, err := NewManager(Config{
		Workers:      1,
		Coordinator:  coord,
		BuildProblem: gameBuilder(15*time.Millisecond, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	st, err := m.Submit(fedshap.JobRequest{N: 8, Algorithm: "exact"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, func(s *fedshap.JobStatus) bool { return s.FreshEvals >= 5 })
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, m, st.ID, terminal)
	if fin.State != fedshap.JobCancelled {
		t.Fatalf("state = %s (%s), want cancelled", fin.State, fin.Error)
	}
	if fin.FreshEvals >= fin.Budget {
		t.Errorf("cancelled distributed job consumed the whole budget (%d/%d)", fin.FreshEvals, fin.Budget)
	}
}
