package loadgen

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"fedshap"
	"fedshap/internal/valserve"
)

// TestRunnerEndToEnd replays a mixed-fingerprint load with warm resubmits
// and an SSE watcher pool against an in-process daemon and checks the
// report's accounting: everything submitted, everything done, latency
// populations complete, warm traffic visible in the cache counters.
func TestRunnerEndToEnd(t *testing.T) {
	m, err := valserve.NewManager(valserve.Config{
		Workers:      3,
		QueueCap:     128,
		CacheDir:     t.TempDir(),
		BuildProblem: additiveBuilder(time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv := httptest.NewServer(valserve.NewHandler(m))
	defer srv.Close()

	r, err := NewRunner(Config{
		Client:       fedshap.NewServiceClient(srv.URL),
		Jobs:         40,
		Concurrency:  4,
		BatchSize:    4,
		Fingerprints: 4,
		WarmFraction: 0.3,
		Watchers:     3,
		Seed:         7,
		Timeout:      60 * time.Second,
		Mix:          Mix{Gammas: []int{4, 6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if rep.Submitted != 40 || rep.Done != 40 || rep.Failed != 0 || rep.Cancelled != 0 {
		t.Errorf("population = submitted %d done %d failed %d cancelled %d, want 40/40/0/0",
			rep.Submitted, rep.Done, rep.Failed, rep.Cancelled)
	}
	if rep.WarmResubmits == 0 {
		t.Error("no warm resubmits generated at WarmFraction 0.3")
	}
	if rep.SubmitLatency.Count != 40 || rep.QueueWait.Count != 40 || rep.JobLatency.Count != 40 {
		t.Errorf("latency populations = %d/%d/%d, want 40 each",
			rep.SubmitLatency.Count, rep.QueueWait.Count, rep.JobLatency.Count)
	}
	if rep.JobLatency.P50 <= 0 || rep.JobLatency.P99 < rep.JobLatency.P50 {
		t.Errorf("job latency percentiles inconsistent: %+v", rep.JobLatency)
	}
	if rep.Throughput <= 0 || rep.WallSeconds <= 0 {
		t.Errorf("throughput %v over %vs", rep.Throughput, rep.WallSeconds)
	}
	if rep.FreshEvals == 0 {
		t.Error("no fresh evaluations counted")
	}
	if rep.WarmedCoalitions == 0 {
		t.Error("warm resubmits warmed nothing — store not exercised")
	}
	if rep.Watchers.Events == 0 || rep.Watchers.Jobs == 0 {
		t.Errorf("watcher pool saw nothing: %+v", rep.Watchers)
	}
	if rep.Metrics == nil {
		t.Error("no final /metrics snapshot")
	}
	if n := r.TerminalCount(); n != 40 {
		t.Errorf("TerminalCount() = %d, want 40", n)
	}

	// A verbatim rerun of the distinct requests is fully warm: the store
	// holds every coalition, so zero fresh evaluations remain.
	client := fedshap.NewServiceClient(srv.URL)
	for _, req := range r.UniqueRequests() {
		st, err := client.Submit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		final, err := client.Wait(context.Background(), st.ID, 5*time.Millisecond, nil)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != fedshap.JobDone || final.FreshEvals != 0 {
			t.Errorf("replayed job %s: state %s, %d fresh evals, want done/0", st.ID, final.State, final.FreshEvals)
		}
	}
}
