package valserve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"fedshap"
	"fedshap/internal/combin"
	"fedshap/internal/evalnet"
)

// TestMetricsEndpoint drives the full daemon flow and checks GET /metrics
// aggregates it: job-state counts, queue bounds, cache effectiveness
// (zero hit ratio on a cold run, nonzero after a warm resubmit), store
// footprint and journal size.
func TestMetricsEndpoint(t *testing.T) {
	dir := t.TempDir()
	client, _ := startDaemon(t, Config{
		Workers:      1,
		QueueCap:     7,
		CacheDir:     dir,
		JournalPath:  dir + "/jobs-journal.db",
		BuildProblem: gameBuilder(0, nil),
	})
	ctx := context.Background()

	req := fedshap.JobRequest{N: 5, Algorithm: "exact", Seed: 9}
	st, err := client.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if fin, err := client.Wait(ctx, st.ID, 5*time.Millisecond, nil); err != nil || fin.State != fedshap.JobDone {
		t.Fatalf("first run: %v (%+v)", err, fin)
	}

	mt, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if mt.Jobs.Done != 1 || mt.Jobs.QueueCapacity != 7 {
		t.Errorf("jobs = %+v, want 1 done, queue capacity 7", mt.Jobs)
	}
	if mt.Cache.FreshTotal != 32 || mt.Cache.WarmedTotal != 0 || mt.Cache.HitRatio != 0 {
		t.Errorf("cold cache metrics = %+v, want 32 fresh, 0 warmed", mt.Cache)
	}
	if mt.Cache.StoreFingerprints != 1 || mt.Cache.StoreBytes == 0 {
		t.Errorf("store metrics = %+v, want 1 fingerprint with bytes on disk", mt.Cache)
	}
	if mt.Journal.Path == "" || mt.Journal.Bytes == 0 {
		t.Errorf("journal metrics = %+v, want a path and bytes on disk", mt.Journal)
	}
	if mt.Fleet != nil {
		t.Errorf("fleet = %+v, want nil without a coordinator", mt.Fleet)
	}

	// A warm resubmit flips the cache ratio.
	st2, err := client.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if fin, err := client.Wait(ctx, st2.ID, 5*time.Millisecond, nil); err != nil || fin.State != fedshap.JobDone {
		t.Fatalf("warm run: %v (%+v)", err, fin)
	}
	mt, err = client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if mt.Cache.WarmedTotal != 32 || mt.Cache.HitRatio != 0.5 {
		t.Errorf("warm cache metrics = %+v, want 32 warmed, hit ratio 0.5", mt.Cache)
	}
}

// TestPeriodicCompaction checks the background compaction loop rewrites
// duplicate store records while the daemon is live — the long-lived-daemon
// counterpart of the shutdown compaction.
func TestPeriodicCompaction(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(Config{
		Workers:      1,
		CacheDir:     dir,
		JournalPath:  dir + "/jobs-journal.db",
		CompactEvery: 20 * time.Millisecond,
		BuildProblem: gameBuilder(0, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Seed the store with heavy duplication, as a crash-looping daemon
	// re-evaluating the same fingerprint would.
	const fp = "deadbeefdeadbeef"
	coal := combin.NewCoalition(0, 1)
	for i := 0; i < 50; i++ {
		if err := m.Store().Append(fp, coal, 3); err != nil {
			t.Fatal(err)
		}
	}
	before, err := m.Store().Stats()
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for m.Metrics().Cache.CompactionDropped < 49 {
		if time.Now().After(deadline) {
			t.Fatalf("background compaction never dropped the duplicates (metrics: %+v)", m.Metrics().Cache)
		}
		time.Sleep(5 * time.Millisecond)
	}
	after, err := m.Store().Stats()
	if err != nil {
		t.Fatal(err)
	}
	if after.Bytes >= before.Bytes {
		t.Errorf("store bytes %d → %d, want shrink", before.Bytes, after.Bytes)
	}
	// The compacted file still holds the utility.
	entries, err := m.Store().Load(fp)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[coal] != 3 {
		t.Errorf("compacted entries = %v, want {%v: 3}", entries, coal)
	}
	if got := m.Metrics().Cache.Compactions; got == 0 {
		t.Error("metrics report zero compaction sweeps")
	}
}

// TestCompactNow exercises the deterministic sweep entry point the
// background loop runs, including the journal rewrite.
func TestCompactNow(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(Config{
		Workers:      1,
		CacheDir:     dir,
		JournalPath:  dir + "/jobs-journal.db",
		BuildProblem: gameBuilder(0, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	st, err := m.Submit(fedshap.JobRequest{N: 4, Algorithm: "exact", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitState(t, m, st.ID, terminal); fin.State != fedshap.JobDone {
		t.Fatalf("job: %s (%s)", fin.State, fin.Error)
	}
	const fp = "feedfacefeedface"
	for i := 0; i < 10; i++ {
		if err := m.Store().Append(fp, combin.NewCoalition(2), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	dropped, err := m.CompactNow()
	if err != nil {
		t.Fatal(err)
	}
	if dropped < 9 {
		t.Errorf("CompactNow dropped %d records, want >= 9", dropped)
	}
	// Last record wins, exactly as Store.Compact documents.
	entries, err := m.Store().Load(fp)
	if err != nil {
		t.Fatal(err)
	}
	if entries[combin.NewCoalition(2)] != 9 {
		t.Errorf("compacted utility = %v, want 9 (last record wins)", entries[combin.NewCoalition(2)])
	}
	// The journal survived its rewrite: the finished job still replays.
	jobs, err := m.Journal().Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != st.ID || jobs[0].State != fedshap.JobDone {
		t.Errorf("journal after compaction replays %+v, want the finished job", jobs)
	}
}

// TestMetricsSurfacesAgree checks the two /metrics surfaces are projections
// of the same sample: with a store, a journal and a worker fleet
// configured, the JSON snapshot and the Prometheus scrape of a quiescent
// daemon agree on every sampled quantity.
func TestMetricsSurfacesAgree(t *testing.T) {
	coord, addr := startFleetCoordinator(t)
	ctx, stopWorker := context.WithCancel(context.Background())
	defer stopWorker()
	go func() {
		w := &evalnet.Worker{Name: "wa", Capacity: 2, Build: func(evalnet.ProblemSpec) (evalnet.Evaluator, error) {
			return evalnet.Evaluator{Eval: func(s combin.Coalition) float64 { return float64(s.Size()) }}, nil
		}}
		_ = w.Dial(ctx, addr)
	}()
	waitFleet(t, coord, 1)

	dir := t.TempDir()
	m, err := NewManager(Config{
		Workers:      1,
		QueueCap:     9,
		CacheDir:     dir,
		JournalPath:  t.TempDir() + "/jobs.journal",
		Coordinator:  coord,
		BuildProblem: gameBuilder(0, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// Duplicate store records give the compaction sweep something to drop.
	for i := 0; i < 3; i++ {
		if err := m.Store().Append("deadbeefdeadbeef", combin.NewCoalition(0, 1), 3); err != nil {
			t.Fatal(err)
		}
	}
	st, err := m.Submit(fedshap.JobRequest{N: 5, Algorithm: "exact", Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitState(t, m, st.ID, terminal); fin.State != fedshap.JobDone {
		t.Fatalf("job state = %s (%s)", fin.State, fin.Error)
	}
	if _, err := m.CompactNow(); err != nil {
		t.Fatal(err)
	}

	h := NewHandler(m)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var mt fedshap.Metrics
	if err := json.Unmarshal(rec.Body.Bytes(), &mt); err != nil {
		t.Fatalf("JSON /metrics: %v", err)
	}
	if mt.Fleet == nil || len(mt.Fleet.Workers) != 1 || mt.Fleet.Workers[0].Completed == 0 {
		t.Fatalf("fleet = %+v, want one worker that answered evaluations", mt.Fleet)
	}
	if mt.Cache.StoreBytes == 0 || mt.Journal.Bytes == 0 || mt.Cache.Compactions != 1 || mt.Cache.CompactionDropped == 0 {
		t.Fatalf("cache = %+v, journal = %+v: want a populated store and journal and one compaction", mt.Cache, mt.Journal)
	}

	degraded := 0.0
	if mt.Degraded {
		degraded = 1
	}
	want := map[string]float64{
		"fedvald_queued_jobs":                                   float64(mt.Jobs.Queued),
		"fedvald_running_jobs":                                  float64(mt.Jobs.Running),
		"fedvald_job_queue_depth_jobs":                          float64(mt.Jobs.QueueDepth),
		"fedvald_job_queue_capacity_jobs":                       float64(mt.Jobs.QueueCapacity),
		"fedvald_store_bytes":                                   float64(mt.Cache.StoreBytes),
		"fedvald_store_fingerprints":                            float64(mt.Cache.StoreFingerprints),
		"fedvald_journal_bytes":                                 float64(mt.Journal.Bytes),
		"fedvald_compactions_total":                             float64(mt.Cache.Compactions),
		"fedvald_compaction_dropped_total":                      float64(mt.Cache.CompactionDropped),
		"fedvald_degraded":                                      degraded,
		"fedvald_fleet_workers":                                 float64(len(mt.Fleet.Workers)),
		"fedvald_fleet_capacity_tasks":                          float64(mt.Fleet.TotalCapacity),
		"fedvald_fleet_pending_tasks":                           float64(mt.Fleet.PendingTasks),
		`fedvald_fleet_redispatch_total{reason="straggler"}`:    float64(mt.Fleet.Redispatches),
		`fedvald_fleet_redispatch_total{reason="worker-death"}`: float64(mt.Fleet.Requeues),
		`fedvald_fleet_redispatch_total{reason="deadline"}`:     float64(mt.Fleet.DeadlineRequeues),
		"fedvald_fleet_redispatch_wins_total":                   float64(mt.Fleet.RedispatchWins),
		"fedvald_fleet_quarantined_workers":                     float64(len(mt.Fleet.Quarantined)),
		"fedvald_fleet_quarantine_rejections_total":             float64(mt.Fleet.QuarantineRejections),
		"fedvald_fleet_refused_frames_total":                    float64(mt.Fleet.RefusedFrames),
	}
	for _, w := range mt.Fleet.Workers {
		labels := fmt.Sprintf(`{worker=%q,id="%d"}`, w.Name, w.ID)
		want["fedvald_fleet_worker_completed_total"+labels] = float64(w.Completed)
		want["fedvald_fleet_worker_redispatched_total"+labels] = float64(w.Redispatched)
		want["fedvald_fleet_worker_inflight_tasks"+labels] = float64(w.InFlight)
		want["fedvald_fleet_worker_ewma_seconds"+labels] = w.EWMAMillis / 1000
	}
	got := scrapeProm(t, h)
	for key, v := range want {
		if g, ok := got[key]; !ok {
			t.Errorf("scrape is missing %s", key)
		} else if g != v {
			t.Errorf("%s = %v on the Prometheus surface, %v on the JSON surface", key, g, v)
		}
	}
}
