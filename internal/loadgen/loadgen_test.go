package loadgen

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"fedshap"
	"fedshap/internal/combin"
	"fedshap/internal/evalnet"
	"fedshap/internal/experiments"
	"fedshap/internal/resilience"
	"fedshap/internal/utility"
	"fedshap/internal/valserve"
)

// TestMain doubles as the entry point for the OS processes the chaos e2e
// spawns: with FEDSHAP_LOADTEST_DAEMON_DIR set the test binary is a
// fedvald-style daemon on a fixed address (so a relaunch after SIGKILL is
// reachable at the same URL), with FEDSHAP_LOADTEST_COORD it is a
// fedvalworker-style worker with a reconnect loop. Both play the additive
// test game U(S) = Σ_{i∈S}(i+1) so no FL training happens in tests.
func TestMain(m *testing.M) {
	if dir := os.Getenv("FEDSHAP_LOADTEST_DAEMON_DIR"); dir != "" {
		runLoadTestDaemon(dir)
		os.Exit(0)
	}
	if coord := os.Getenv("FEDSHAP_LOADTEST_COORD"); coord != "" {
		runLoadTestWorker(coord)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// additiveGame is the shared synthetic utility: exact, additive, and
// identical between daemon-side and worker-side evaluation, so chaos and
// control runs must agree bit for bit.
func additiveGame(delay time.Duration) utility.EvalFunc {
	return func(s combin.Coalition) float64 {
		if delay > 0 {
			time.Sleep(delay)
		}
		var u float64
		for _, i := range s.Members() {
			u += float64(i + 1)
		}
		return u
	}
}

// additiveBuilder injects the additive game as the daemon's problem
// constructor.
func additiveBuilder(delay time.Duration) func(fedshap.JobRequest) (*experiments.Problem, error) {
	return func(req fedshap.JobRequest) (*experiments.Problem, error) {
		return experiments.NewFuncProblem("loadtest-game", req.N, additiveGame(delay)), nil
	}
}

func envDelay(name string) time.Duration {
	ms, _ := strconv.Atoi(os.Getenv(name))
	return time.Duration(ms) * time.Millisecond
}

// runLoadTestDaemon serves a fedvald-style daemon rooted at dir on the
// fixed FEDSHAP_LOADTEST_API_ADDR, with a coordinator listener on
// FEDSHAP_LOADTEST_WORKER_ADDR when set. FEDSHAP_LOADTEST_FAULT_FILE arms
// the persistence fault switch (with a fast recovery probe);
// FEDSHAP_LOADTEST_TASK_DEADLINE_MS, FEDSHAP_LOADTEST_FLAP_THRESHOLD and
// FEDSHAP_LOADTEST_BENCH_BASE_MS shrink the coordinator's resilience
// timings to test scale. It serves until killed.
func runLoadTestDaemon(dir string) {
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "loadtest daemon:", err)
		os.Exit(1)
	}
	var coord *evalnet.Coordinator
	if wa := os.Getenv("FEDSHAP_LOADTEST_WORKER_ADDR"); wa != "" {
		wln, err := net.Listen("tcp", wa)
		if err != nil {
			fail(err)
		}
		flapThreshold, _ := strconv.Atoi(os.Getenv("FEDSHAP_LOADTEST_FLAP_THRESHOLD"))
		coord = evalnet.NewCoordinatorWith(evalnet.SchedulerConfig{
			TaskDeadline:  envDelay("FEDSHAP_LOADTEST_TASK_DEADLINE_MS"),
			FlapThreshold: flapThreshold,
			BenchBase:     envDelay("FEDSHAP_LOADTEST_BENCH_BASE_MS"),
		})
		go func() { _ = coord.Serve(wln) }()
	}
	cfg := valserve.Config{
		Workers:      3,
		QueueCap:     256,
		CacheDir:     filepath.Join(dir, "cache"),
		JournalPath:  filepath.Join(dir, "jobs.jsonl"),
		BuildProblem: additiveBuilder(envDelay("FEDSHAP_LOADTEST_GAME_DELAY_MS")),
		Coordinator:  coord,
	}
	if ff := os.Getenv("FEDSHAP_LOADTEST_FAULT_FILE"); ff != "" {
		cfg.Fault = resilience.FileHook(ff)
		cfg.DegradedProbeEvery = 250 * time.Millisecond
	}
	m, err := valserve.NewManager(cfg)
	if err != nil {
		fail(err)
	}
	ln, err := net.Listen("tcp", os.Getenv("FEDSHAP_LOADTEST_API_ADDR"))
	if err != nil {
		fail(err)
	}
	_ = (&http.Server{Handler: valserve.NewHandler(m)}).Serve(ln)
}

// runLoadTestWorker dials the coordinator in a reconnect loop (like
// fedvalworker -retry) so it survives partitions and daemon restarts. It
// runs until killed.
func runLoadTestWorker(coordAddr string) {
	delay := envDelay("FEDSHAP_LOADTEST_GAME_DELAY_MS")
	w := &evalnet.Worker{
		Name:     os.Getenv("FEDSHAP_LOADTEST_WORKER_NAME"),
		Capacity: 2,
		Build: func(evalnet.ProblemSpec) (evalnet.Evaluator, error) {
			return evalnet.Evaluator{Eval: additiveGame(delay)}, nil
		},
	}
	for {
		_ = w.Dial(context.Background(), coordAddr)
		time.Sleep(100 * time.Millisecond)
	}
}

// spawnHelper re-executes the test binary with the given env entries and
// leaves process teardown to the caller (the chaos controller owns kills
// and relaunches).
func spawnHelper(env ...string) (*exec.Cmd, error) {
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), env...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return cmd, nil
}

// freeAddr reserves a loopback port for a spawned process to bind.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// --- unit tests -------------------------------------------------------

func TestGenerateDeterministicAndMixed(t *testing.T) {
	cfg := Config{
		Client: fedshap.NewServiceClient("http://unused"),
		Jobs:   200, Fingerprints: 6, WarmFraction: 0.3, Seed: 42,
		Mix: Mix{Models: []string{"logreg", "mlp"}, Gammas: []int{4, 8}},
	}
	r1, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := r1.Requests(), r2.Requests()
	if len(a) != 200 || len(b) != 200 {
		t.Fatalf("generated %d / %d requests, want 200", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("request %d differs between equal-seed runs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// The traffic spreads across exactly the configured fingerprint count
	// (with 200 draws over 6 variants, all appear), mixes γ budgets and
	// model types, and contains warm resubmits.
	prints := make(map[string]bool)
	gammas := make(map[int]bool)
	models := make(map[string]bool)
	counts := make(map[string]int)
	for _, req := range a {
		prints[fmt.Sprintf("%s/%d", req.Model, req.Seed)] = true
		gammas[req.Gamma] = true
		models[req.Model] = true
		counts[requestKey(req)]++
	}
	if len(prints) != 6 {
		t.Errorf("traffic covers %d fingerprints, want 6", len(prints))
	}
	if len(gammas) != 2 || len(models) != 2 {
		t.Errorf("mix not exercised: %d gammas, %d models", len(gammas), len(models))
	}
	dupes := 0
	for _, n := range counts {
		dupes += n - 1
	}
	if dupes == 0 {
		t.Error("WarmFraction 0.3 produced no duplicate submissions")
	}
	if len(r1.UniqueRequests()) != len(counts) {
		t.Errorf("UniqueRequests() = %d, want %d", len(r1.UniqueRequests()), len(counts))
	}
}

func TestPercentilesNearestRank(t *testing.T) {
	var sample []time.Duration
	for i := 1; i <= 100; i++ {
		sample = append(sample, time.Duration(i)*time.Millisecond)
	}
	p := percentilesOf(sample)
	if p.Count != 100 {
		t.Errorf("Count = %d", p.Count)
	}
	if p.P50 != 0.050 || p.P95 != 0.095 || p.P99 != 0.099 || p.Max != 0.100 {
		t.Errorf("percentiles = p50 %v p95 %v p99 %v max %v", p.P50, p.P95, p.P99, p.Max)
	}
	if diff := p.Mean - 0.0505; diff < -1e-12 || diff > 1e-12 {
		t.Errorf("mean = %v, want 0.0505", p.Mean)
	}
	if got := percentilesOf(nil); got != (Percentiles{}) {
		t.Errorf("empty sample = %+v, want zero", got)
	}
}

func TestFaultSequenceInterleaves(t *testing.T) {
	check := func(got, want []string) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("sequence %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("sequence %v, want %v", got, want)
			}
		}
	}
	check(faultSequence(2, 1, 1, 0, 0, 0), []string{"worker", "partition", "daemon", "worker"})
	check(faultSequence(1, 0, 1, 1, 1, 1), []string{"worker", "daemon", "diskfull", "stall", "flap"})
	if got := faultSequence(0, 0, 0, 0, 0, 0); len(got) != 0 {
		t.Errorf("empty quotas produced %v", got)
	}
}

// TestScrapesFoldInOrder: the ticker's scrape and the chaos controller's
// can be in flight at once. An older reading folded after a newer one
// looks like a counter that went backwards, which the carry takes for a
// new daemon life and counts twice.
func TestScrapesFoldInOrder(t *testing.T) {
	entered, release := make(chan struct{}, 2), make(chan struct{})
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		entered <- struct{}{}
		if n == 1 { // the first reading answers only on release
			<-release
		}
		fmt.Fprintf(w, "# HELP %[1]s R.\n# TYPE %[1]s counter\n%[1]s %d\n", quarantineRejectKey, 4+n)
	}))
	defer srv.Close()
	s := newMetricsScraper(fedshap.NewServiceClient(srv.URL), time.Hour)
	ctx := context.Background()

	firstDone, secondDone := make(chan struct{}), make(chan struct{})
	go func() { s.Scrape(ctx); close(firstDone) }()
	<-entered
	go func() { s.Scrape(ctx); close(secondDone) }()
	select {
	case <-secondDone: // the second reading folded while the first was in flight
	case <-time.After(100 * time.Millisecond): // it waits for the first
	}
	close(release)
	<-firstDone
	<-secondDone
	if got := s.total(quarantineRejectKey); got != 6 {
		t.Errorf("carried total = %d after readings 5 then 6 of one daemon life, want 6", got)
	}
}
