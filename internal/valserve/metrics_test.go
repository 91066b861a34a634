package valserve

import (
	"context"
	"strconv"
	"strings"
	"testing"
	"time"

	"fedshap"
	"fedshap/internal/combin"
	"fedshap/internal/evalnet"
	"fedshap/internal/obs"
)

// TestMetricsEndpoint drives the full daemon flow through the client and
// checks the scrape aggregates it: job outcomes, queue bounds, cold and
// warm evaluation counts (zero hit ratio on a cold run, one half after a
// warm resubmit), store footprint and journal size, and no fleet series
// without a coordinator.
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
	want := map[string]float64{
		`fedvald_jobs_completed_total{state="done"}`: 1,
		"fedvald_job_queue_capacity_jobs":            7,
		`fedvald_evaluations_total{kind="fresh"}`:    32,
		`fedvald_evaluations_total{kind="warmed"}`:   0,
		"fedvald_cache_hit_ratio":                    0,
		"fedvald_store_fingerprints":                 1,
	}
	checkSeries(t, "cold", mt, want)
	for _, key := range []string{"fedvald_store_bytes", "fedvald_journal_bytes"} {
		if mt[key] <= 0 {
			t.Errorf("%s = %v, want bytes on disk", key, mt[key])
		}
	}
	for key := range mt {
		if strings.HasPrefix(key, "fedvald_fleet_") {
			t.Errorf("series %s without a coordinator", key)
		}
	}

	// A warm resubmit flips the cache ratio.
	st2, err := client.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if fin, err := client.Wait(ctx, st2.ID, 5*time.Millisecond, nil); err != nil || fin.State != fedshap.JobDone {
		t.Fatalf("warm run: %v (%+v)", err, fin)
	}
	if mt, err = client.Metrics(ctx); err != nil {
		t.Fatal(err)
	}
	checkSeries(t, "warm", mt, map[string]float64{
		`fedvald_jobs_completed_total{state="done"}`: 2,
		`fedvald_evaluations_total{kind="fresh"}`:    32,
		`fedvald_evaluations_total{kind="warmed"}`:   32,
		"fedvald_cache_hit_ratio":                    0.5,
	})
}

// checkSeries asserts that each wanted series is in the scrape with its
// exact value.
func checkSeries(t *testing.T, what string, got, want map[string]float64) {
	t.Helper()
	for key, v := range want {
		if g, ok := got[key]; !ok {
			t.Errorf("%s: scrape is missing %s", what, key)
		} else if g != v {
			t.Errorf("%s: %s = %v, want %v", what, key, g, v)
		}
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

	h := NewHandler(m)
	deadline := time.Now().Add(10 * time.Second)
	for scrapeProm(t, h)["fedvald_compaction_dropped_total"] < 49 {
		if time.Now().After(deadline) {
			t.Fatalf("background compaction never dropped the duplicates (dropped %v)",
				scrapeProm(t, h)["fedvald_compaction_dropped_total"])
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
	if got := scrapeProm(t, h)["fedvald_compactions_total"]; got == 0 {
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

// TestMetricsScrapePopulatedDaemon scrapes a quiescent daemon with a
// store, a journal and a worker fleet configured, after a job, one
// compaction sweep and a flap-quarantined worker name: the store,
// journal, compaction and fleet series all carry what the manager and
// coordinator hold.
func TestMetricsScrapePopulatedDaemon(t *testing.T) {
	coord, addr := startFleetCoordinator(t)
	ctx, stopWorker := context.WithCancel(context.Background())
	defer stopWorker()
	build := func(evalnet.ProblemSpec) (evalnet.Evaluator, error) {
		return evalnet.Evaluator{Eval: func(s combin.Coalition) float64 { return float64(s.Size()) }}, nil
	}
	go func() {
		w := &evalnet.Worker{Name: "wa", Capacity: 2, Build: build}
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
	dropped, err := m.CompactNow()
	if err != nil {
		t.Fatal(err)
	}
	store, err := m.Store().Stats()
	if err != nil {
		t.Fatal(err)
	}
	fleet := coord.Stats()
	if len(fleet.Workers) != 1 || fleet.Workers[0].Completed == 0 {
		t.Fatalf("fleet = %+v, want one worker that answered evaluations", fleet)
	}

	got := scrapeProm(t, NewHandler(m))
	want := map[string]float64{
		"fedvald_queued_jobs":                                   0,
		"fedvald_running_jobs":                                  0,
		"fedvald_job_queue_depth_jobs":                          0,
		"fedvald_job_queue_capacity_jobs":                       9,
		"fedvald_store_bytes":                                   float64(store.Bytes),
		"fedvald_store_fingerprints":                            float64(store.Fingerprints),
		"fedvald_journal_bytes":                                 float64(m.Journal().Size()),
		"fedvald_compactions_total":                             1,
		"fedvald_compaction_dropped_total":                      float64(dropped),
		"fedvald_degraded":                                      0,
		"fedvald_fleet_workers":                                 1,
		"fedvald_fleet_capacity_tasks":                          2,
		"fedvald_fleet_pending_tasks":                           0,
		`fedvald_fleet_redispatch_total{reason="straggler"}`:    float64(fleet.Redispatches),
		`fedvald_fleet_redispatch_total{reason="worker-death"}`: float64(fleet.Requeues),
		`fedvald_fleet_redispatch_total{reason="deadline"}`:     float64(fleet.DeadlineRequeues),
		"fedvald_fleet_redispatch_wins_total":                   float64(fleet.RedispatchWins),
		"fedvald_fleet_quarantine_rejections_total":             0,
		"fedvald_fleet_refused_frames_total":                    0,
	}
	for _, w := range fleet.Workers {
		labels := []string{"worker", w.Name, "id", strconv.Itoa(w.ID)}
		want[obs.SeriesKey("fedvald_fleet_worker_completed_total", labels...)] = float64(w.Completed)
		want[obs.SeriesKey("fedvald_fleet_worker_redispatched_total", labels...)] = float64(w.Redispatched)
		want[obs.SeriesKey("fedvald_fleet_worker_inflight_tasks", labels...)] = 0
		want[obs.SeriesKey("fedvald_fleet_worker_ewma_seconds", labels...)] = w.EWMAMillis / 1000
	}
	if store.Bytes == 0 || m.Journal().Size() == 0 || dropped == 0 {
		t.Fatalf("store %+v, journal %d bytes, %d dropped: want a populated store and journal and a sweep that dropped records",
			store, m.Journal().Size(), dropped)
	}
	checkSeries(t, "populated daemon", got, want)
	if n := countSeries(got, "fedvald_fleet_quarantined_workers"); n != 0 {
		t.Errorf("%d quarantined-worker series with no name benched", n)
	}

	// Three lost links inside the flap window bench a name (the default
	// flap threshold): the name's own series reads 1 while the bench
	// lasts, its quotes and space escaped in the label and parsed back.
	const flappy = `flap "py"`
	for i := 0; i < 3; i++ {
		wctx, drop := context.WithCancel(ctx)
		done := make(chan struct{})
		go func() {
			defer close(done)
			w := &evalnet.Worker{Name: flappy, Capacity: 1, Build: build}
			_ = w.Dial(wctx, addr)
		}()
		waitFleet(t, coord, 2)
		drop()
		<-done
		waitFleet(t, coord, 1)
	}
	got = scrapeProm(t, NewHandler(m))
	if v := got[obs.SeriesKey("fedvald_fleet_quarantined_workers", "worker", flappy)]; v != 1 {
		t.Errorf("benched %q: quarantined-worker series = %v, want 1 (coordinator benches %v)",
			flappy, v, coord.Stats().Quarantined)
	}
	if n := countSeries(got, "fedvald_fleet_quarantined_workers"); n != 1 {
		t.Errorf("%d quarantined-worker series with one name benched", n)
	}
}

// countSeries counts a family's labelled series in a scrape.
func countSeries(samples map[string]float64, name string) int {
	n := 0
	for key := range samples {
		if strings.HasPrefix(key, name+"{") {
			n++
		}
	}
	return n
}
