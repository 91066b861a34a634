package valserve

import (
	"context"
	"errors"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"fedshap"
)

// startDaemon serves a Manager over a real loopback TCP listener — the
// same wiring as cmd/fedvald — and returns a ServiceClient for it.
func startDaemon(t *testing.T, cfg Config) (*fedshap.ServiceClient, *Manager) {
	t.Helper()
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: NewHandler(m)}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		_ = m.Close()
	})
	return fedshap.NewServiceClient("http://" + ln.Addr().String()), m
}

// TestServiceEndToEnd drives the full daemon flow over loopback HTTP with
// real federated training: submit a small job, observe monotone progress,
// fetch the report, then resubmit and see it served entirely from the
// persistent cache with zero fresh evaluations.
func TestServiceEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("trains real FL models")
	}
	client, _ := startDaemon(t, Config{Workers: 1, CacheDir: t.TempDir()})
	ctx := context.Background()

	req := fedshap.JobRequest{
		Data:      "synthetic",
		Model:     "logreg",
		N:         5,
		Algorithm: "ipss",
		Scale:     "tiny",
		Seed:      7,
	}
	st, err := client.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != fedshap.JobQueued && st.State != fedshap.JobRunning {
		t.Fatalf("initial state = %s", st.State)
	}
	if st.Fingerprint == "" || st.Budget <= 0 {
		t.Fatalf("initial status missing fingerprint/budget: %+v", st)
	}

	var progress []int
	fin, err := client.Wait(ctx, st.ID, 10*time.Millisecond, func(s *fedshap.JobStatus) {
		progress = append(progress, s.FreshEvals)
	})
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != fedshap.JobDone {
		t.Fatalf("state = %s (%s)", fin.State, fin.Error)
	}
	for i := 1; i < len(progress); i++ {
		if progress[i] < progress[i-1] {
			t.Fatalf("progress not monotone: %v", progress)
		}
	}
	if fin.FreshEvals == 0 || fin.FreshEvals > fin.Budget {
		t.Errorf("fresh evals = %d, budget %d", fin.FreshEvals, fin.Budget)
	}
	rep, err := client.Report(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Values) != req.N || len(rep.Names) != req.N {
		t.Fatalf("report has %d values / %d names, want %d", len(rep.Values), len(rep.Names), req.N)
	}

	// Resubmit the identical job: served from the persistent cache.
	st2, err := client.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	fin2, err := client.Wait(ctx, st2.ID, 10*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fin2.State != fedshap.JobDone {
		t.Fatalf("warm rerun state = %s (%s)", fin2.State, fin2.Error)
	}
	if fin2.FreshEvals != 0 {
		t.Errorf("warm rerun fresh evals = %d, want 0", fin2.FreshEvals)
	}
	if fin2.WarmedCoalitions == 0 {
		t.Error("warm rerun loaded no cached utilities")
	}
	for i := range rep.Values {
		if rep.Values[i] != fin2.Report.Values[i] {
			t.Errorf("value[%d] differs on warm rerun: %v vs %v", i, rep.Values[i], fin2.Report.Values[i])
		}
	}

	// The job listing knows both runs.
	jobs, err := client.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Errorf("listed %d jobs, want 2", len(jobs))
	}
}

// TestServiceCancelOverHTTP cancels a running job through the API and
// verifies fresh evaluations stop.
func TestServiceCancelOverHTTP(t *testing.T) {
	var evals atomic.Int64
	client, _ := startDaemon(t, Config{
		Workers:      1,
		EvalWorkers:  1,
		BuildProblem: gameBuilder(3*time.Millisecond, &evals),
	})
	ctx := context.Background()

	st, err := client.Submit(ctx, fedshap.JobRequest{N: 8, Algorithm: "exact"})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the job demonstrably makes progress, then cancel it.
	deadline := time.Now().Add(20 * time.Second)
	for {
		cur, err := client.Job(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.FreshEvals >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never progressed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := client.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	fin, err := client.Wait(ctx, st.ID, 10*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != fedshap.JobCancelled {
		t.Fatalf("state = %s (%s), want cancelled", fin.State, fin.Error)
	}
	if fin.FreshEvals >= fin.Budget {
		t.Errorf("cancelled job consumed the whole budget (%d/%d)", fin.FreshEvals, fin.Budget)
	}
	// No report for a cancelled job: the endpoint answers 409.
	var se *fedshap.ServiceError
	if _, err := client.Report(ctx, st.ID); !errors.As(err, &se) || se.StatusCode != http.StatusConflict {
		t.Errorf("Report on cancelled job = %v, want HTTP 409", err)
	}
	settled := evals.Load()
	time.Sleep(50 * time.Millisecond)
	if got := evals.Load(); got != settled {
		t.Errorf("evaluations continued after cancellation: %d → %d", settled, got)
	}
}

// TestServiceHTTPErrors covers the API's error envelope.
func TestServiceHTTPErrors(t *testing.T) {
	client, _ := startDaemon(t, Config{Workers: 1, BuildProblem: gameBuilder(0, nil)})
	ctx := context.Background()

	if _, err := client.Job(ctx, "no-such-job"); !errors.Is(err, fedshap.ErrJobNotFound) {
		t.Errorf("unknown job err = %v, want ErrJobNotFound", err)
	}
	if _, err := client.Cancel(ctx, "no-such-job"); !errors.Is(err, fedshap.ErrJobNotFound) {
		t.Errorf("cancel unknown job err = %v, want ErrJobNotFound", err)
	}
	var se *fedshap.ServiceError
	if _, err := client.Submit(ctx, fedshap.JobRequest{N: 1, Algorithm: "ipss"}); !errors.As(err, &se) || se.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid submit err = %v, want HTTP 400", err)
	}
}

// TestAdmissionBoundsCoalitions: a job is admitted only when every
// coalition it may evaluate fits the service limit of 2^25, whatever the
// algorithm — kgreedy evaluates C(n, ≤K) coalitions however small γ is, or
// and lambdamr 2ⁿ reconstructions (per round), a sampler up to γ — and a
// kgreedy job reports that count as its budget.
func TestAdmissionBoundsCoalitions(t *testing.T) {
	client, _ := startDaemon(t, Config{Workers: 1, BuildProblem: gameBuilder(0, nil)})
	ctx := context.Background()
	for _, req := range []fedshap.JobRequest{
		{N: 30, Algorithm: "kgreedy", K: 30},
		{N: 10, Algorithm: "ipss", Gamma: 1 << 40},
		{N: 26, Algorithm: "exact"},
		{N: 30, Algorithm: "or"},
		{N: 30, Algorithm: "lambdamr"},
	} {
		// Submitting one that validates would enumerate its plan.
		norm := req
		Normalize(&norm)
		if ValidateRequest(norm, true) == nil {
			t.Fatalf("%s n=%d validates", req.Algorithm, req.N)
		}
		var se *fedshap.ServiceError
		if _, err := client.Submit(ctx, req); !errors.As(err, &se) || se.StatusCode != http.StatusBadRequest {
			t.Errorf("%s n=%d: err = %v, want HTTP 400", req.Algorithm, req.N, err)
		}
	}
	st, err := client.Submit(ctx, fedshap.JobRequest{N: 6, Algorithm: "kgreedy", K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := client.Wait(ctx, st.ID, 10*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != fedshap.JobDone || fin.Budget != 22 || fin.FreshEvals != fin.Budget {
		t.Errorf("kgreedy n=6 K=2: %s, budget %d, fresh %d; want done with budget = fresh = C(6, ≤2) = 22",
			fin.State, fin.Budget, fin.FreshEvals)
	}
}
