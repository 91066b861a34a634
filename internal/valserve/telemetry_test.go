package valserve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"fedshap"
	"fedshap/internal/analysis"
	"fedshap/internal/obs"
)

// promSampleRe matches one exposition sample line: name{labels} value.
var promSampleRe = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?(?:[0-9.e+-]+|\+Inf|NaN))$`)

// scrapeProm fetches the Prometheus exposition from a handler and parses
// it strictly: every non-comment line must be a well-formed sample whose
// metric family was introduced by a # HELP / # TYPE pair. Keys in the
// returned map are name{labels}.
func scrapeProm(t *testing.T, h http.Handler) map[string]float64 {
	t.Helper()
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics (Accept: text/plain) = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("exposition Content-Type = %q, want version=0.0.4", ct)
	}
	return parseProm(t, rec.Body.String())
}

func parseProm(t *testing.T, body string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	typed := make(map[string]bool) // families with HELP+TYPE seen
	helped := make(map[string]bool)
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			helped[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			typed[strings.Fields(line)[2]] = true
			continue
		}
		mm := promSampleRe.FindStringSubmatch(line)
		if mm == nil {
			t.Fatalf("malformed exposition line: %q", line)
		}
		fam := mm[1]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(fam, suffix); base != fam && typed[base] {
				fam = base
				break
			}
		}
		if !typed[fam] || !helped[fam] {
			t.Fatalf("sample %q has no # HELP/# TYPE for its family", line)
		}
		v, err := strconv.ParseFloat(mm[3], 64)
		if err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		samples[mm[1]+mm[2]] = v
	}
	return samples
}

// TestMetricNameLint is the metric-name lint gate: every series either
// daemon registers must carry the right prefix and unit suffix. It goes
// through analysis.MetricProblems — the same code path fedvallint's
// obsmetrics analyzer applies at call sites — so the test and the linter
// cannot drift apart. Label cardinality is checked statically by
// fedvallint, so the runtime pass supplies zero label keys.
func TestMetricNameLint(t *testing.T) {
	coord, _ := startFleetCoordinator(t)
	m, err := NewManager(Config{Workers: 1, Coordinator: coord})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	lintRegistryNames(t, "fedvald", m.Registry().Names())
	lintRegistryNames(t, "fedvalworker", NewWorkerTelemetry().Registry().Names())
}

func lintRegistryNames(t *testing.T, who string, names map[string]obs.Type) {
	t.Helper()
	for name, typ := range names {
		for _, p := range analysis.MetricProblems(name, typ, 0) {
			t.Errorf("%s registry lint: %s", who, p)
		}
	}
}

// TestPrometheusEndpoint drives jobs through a full daemon and asserts
// the Prometheus scrape covers the job, evaluation, cache, journal,
// fleet and autoscaling series with believable values — while the
// default JSON snapshot stays intact.
func TestPrometheusEndpoint(t *testing.T) {
	coord, _ := startFleetCoordinator(t)
	dir := t.TempDir()
	m, err := NewManager(Config{
		Workers:      1,
		QueueCap:     32,
		CacheDir:     dir,
		JournalPath:  t.TempDir() + "/jobs.jsonl",
		Coordinator:  coord,
		BuildProblem: gameBuilder(0, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	h := NewHandler(m)

	req := fedshap.JobRequest{N: 6, Algorithm: "exact", Seed: 3}
	st, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitState(t, m, st.ID, terminal); fin.State != fedshap.JobDone {
		t.Fatalf("job state = %s (%s)", fin.State, fin.Error)
	}
	// Warm resubmit: all coalitions come back as store-warmed cache hits.
	st2, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitState(t, m, st2.ID, terminal); fin.State != fedshap.JobDone {
		t.Fatalf("warm job state = %s (%s)", fin.State, fin.Error)
	}
	// And one cancelled-while-queued job for the outcome counter.
	st3, err := m.Submit(fedshap.JobRequest{N: 20, Algorithm: "exact"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(st3.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st3.ID, terminal)

	samples := scrapeProm(t, h)
	wantAtLeast := map[string]float64{
		`fedvald_jobs_submitted_total`:                       3,
		`fedvald_jobs_completed_total{state="done"}`:         2,
		`fedvald_job_duration_seconds_count`:                 3,
		`fedvald_job_queue_wait_seconds_count`:               2,
		`fedvald_evaluations_total{kind="fresh"}`:            1 << 6,
		`fedvald_evaluations_total{kind="warmed"}`:           1 << 6,
		`fedvald_eval_latency_seconds_count{source="local"}`: 1 << 6,
		`fedvald_eval_latency_seconds_count{source="cache"}`: 1,
		`fedvald_cache_hit_ratio`:                            0.4,
		`fedvald_store_bytes`:                                1,
		`fedvald_store_fingerprints`:                         1,
		`fedvald_journal_bytes`:                              1,
	}
	for key, min := range wantAtLeast {
		if got, ok := samples[key]; !ok {
			t.Errorf("scrape is missing %s", key)
		} else if got < min {
			t.Errorf("%s = %v, want >= %v", key, got, min)
		}
	}
	wantExact := map[string]float64{
		`fedvald_jobs_completed_total{state="cancelled"}`:       1,
		`fedvald_jobs_completed_total{state="failed"}`:          0,
		`fedvald_job_queue_capacity_jobs`:                       32,
		`fedvald_job_queue_depth_jobs`:                          0,
		`fedvald_queued_jobs`:                                   0,
		`fedvald_running_jobs`:                                  0,
		`fedvald_sse_subscribers`:                               0,
		`fedvald_fleet_workers`:                                 0,
		`fedvald_fleet_wanted_workers`:                          0,
		`fedvald_fleet_pending_tasks`:                           0,
		`fedvald_fleet_redispatch_total{reason="straggler"}`:    0,
		`fedvald_fleet_redispatch_total{reason="worker-death"}`: 0,
	}
	for key, want := range wantExact {
		if got, ok := samples[key]; !ok {
			t.Errorf("scrape is missing %s", key)
		} else if got != want {
			t.Errorf("%s = %v, want %v", key, got, want)
		}
	}
	// Histogram invariant on a live series: +Inf bucket == count.
	inf := samples[`fedvald_job_duration_seconds_bucket{le="+Inf"}`]
	if cnt := samples[`fedvald_job_duration_seconds_count`]; inf != cnt {
		t.Errorf("job duration +Inf bucket %v != count %v", inf, cnt)
	}

	// ?format=prometheus negotiates the same exposition without a header.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=prometheus", nil))
	if !strings.Contains(rec.Header().Get("Content-Type"), "version=0.0.4") {
		t.Errorf("?format=prometheus Content-Type = %q", rec.Header().Get("Content-Type"))
	}

	// The default stays the JSON snapshot.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("default /metrics Content-Type = %q, want application/json", ct)
	}
	var mt fedshap.Metrics
	if err := json.Unmarshal(rec.Body.Bytes(), &mt); err != nil {
		t.Fatalf("default /metrics is not the JSON snapshot: %v", err)
	}
	if mt.Jobs.Done != 2 {
		t.Errorf("JSON snapshot done = %d, want 2", mt.Jobs.Done)
	}
}

// TestTraceEndpoint checks the daemon-side timeline of a completed job:
// submit → queue → build_problem → warm_start → prefetch → aggregate →
// report, ordered by start time, with spans closed and attributed.
func TestTraceEndpoint(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(Config{Workers: 1, CacheDir: dir, BuildProblem: gameBuilder(0, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	h := NewHandler(m)

	st, err := m.Submit(fedshap.JobRequest{N: 5, Algorithm: "exact", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitState(t, m, st.ID, terminal); fin.State != fedshap.JobDone {
		t.Fatalf("job state = %s (%s)", fin.State, fin.Error)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+st.ID+"/trace", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET trace = %d: %s", rec.Code, rec.Body.String())
	}
	var tr fedshap.JobTrace
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.JobID != st.ID || tr.State != fedshap.JobDone {
		t.Fatalf("trace header = %s/%s", tr.JobID, tr.State)
	}
	want := []string{"submit", "queue", "build_problem", "warm_start", "prefetch", "aggregate", "report"}
	byName := map[string]fedshap.TraceSpan{}
	for _, sp := range tr.Spans {
		byName[sp.Name] = sp
	}
	for _, name := range want {
		sp, ok := byName[name]
		if !ok {
			t.Errorf("trace is missing span %q (have %d spans)", name, len(tr.Spans))
			continue
		}
		if sp.Source != "daemon" {
			t.Errorf("span %s source = %q, want daemon", name, sp.Source)
		}
		if sp.End == nil {
			t.Errorf("span %s is still open in a terminal job", name)
		}
	}
	for i := 1; i < len(tr.Spans); i++ {
		if tr.Spans[i].Start.Before(tr.Spans[i-1].Start) {
			t.Errorf("spans out of start order at %d: %s before %s",
				i, tr.Spans[i].Name, tr.Spans[i-1].Name)
		}
	}
	if got := byName["report"].Attrs["state"]; got != "done" {
		t.Errorf("report state attr = %q, want done", got)
	}
	if got := byName["aggregate"].Attrs["evaluations"]; got != "32" {
		t.Errorf("aggregate evaluations attr = %q, want 32", got)
	}

	// Unknown jobs 404, exactly like the other job routes.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/nope/trace", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("GET trace for unknown job = %d, want 404", rec.Code)
	}
}

// TestJobsPagination covers GET /v1/jobs?since=&limit= end to end: ID and
// timestamp cursors, strict-after semantics, oldest-first order with a
// cursor, and the error statuses.
func TestJobsPagination(t *testing.T) {
	m, err := NewManager(Config{Workers: 1, BuildProblem: gameBuilder(0, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	h := NewHandler(m)

	ids := make([]string, 5)
	for i := range ids {
		st, err := m.Submit(fedshap.JobRequest{N: 4, Algorithm: "exact", Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
		waitState(t, m, st.ID, terminal)
		time.Sleep(2 * time.Millisecond) // distinct SubmittedAt timestamps
	}

	fetch := func(query string, wantCode int) []*fedshap.JobStatus {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs"+query, nil))
		if rec.Code != wantCode {
			t.Fatalf("GET /v1/jobs%s = %d, want %d: %s", query, rec.Code, wantCode, rec.Body.String())
		}
		if wantCode != http.StatusOK {
			return nil
		}
		var out []*fedshap.JobStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	// Plain limit: the newest two, newest first.
	got := fetch("?limit=2", http.StatusOK)
	if len(got) != 2 || got[0].ID != ids[4] || got[1].ID != ids[3] {
		t.Fatalf("limit=2 returned %s", idsOf(got))
	}
	// ID cursor: strictly after ids[2], oldest first.
	got = fetch("?since="+ids[2], http.StatusOK)
	if len(got) != 2 || got[0].ID != ids[3] || got[1].ID != ids[4] {
		t.Fatalf("since=%s returned %s, want [%s %s]", ids[2], idsOf(got), ids[3], ids[4])
	}
	// Cursor plus limit pages forward one at a time.
	got = fetch("?since="+ids[2]+"&limit=1", http.StatusOK)
	if len(got) != 1 || got[0].ID != ids[3] {
		t.Fatalf("since+limit returned %s, want [%s]", idsOf(got), ids[3])
	}
	// The newest job as cursor yields an empty page — the poller's steady
	// state.
	if got = fetch("?since="+ids[4], http.StatusOK); len(got) != 0 {
		t.Fatalf("since=newest returned %s, want none", idsOf(got))
	}
	// Timestamp cursor: everything submitted after job 1's timestamp.
	all := m.List()
	var ts time.Time
	for _, st := range all {
		if st.ID == ids[1] {
			ts = st.SubmittedAt
		}
	}
	got = fetch("?since="+ts.UTC().Format(time.RFC3339Nano), http.StatusOK)
	if len(got) != 3 || got[0].ID != ids[2] {
		t.Fatalf("since=<timestamp> returned %s, want 3 starting at %s", idsOf(got), ids[2])
	}
	// Unknown cursor job is 404; a bad limit is 400.
	fetch("?since=j9999-nope", http.StatusNotFound)
	fetch("?limit=-1", http.StatusBadRequest)
	fetch("?limit=abc", http.StatusBadRequest)
}

func idsOf(sts []*fedshap.JobStatus) string {
	out := make([]string, len(sts))
	for i, st := range sts {
		out[i] = st.ID
	}
	return fmt.Sprintf("%v", out)
}

// TestEvalLatencySourceCounts pins how many samples each job adds to the
// eval-latency series by source: one "local" sample per in-process
// training and one "cache" sample per request the oracle answered from
// its cache. Three jobs cover the three ways a job reads utilities — a
// warm resubmit served from the store, a plan-driven anytime drive and an
// anytime reduction without a plan drive — each with the pool off (1)
// and on (3).
func TestEvalLatencySourceCounts(t *testing.T) {
	const (
		cache = `fedvald_eval_latency_seconds_count{source="cache"}`
		local = `fedvald_eval_latency_seconds_count{source="local"}`
	)
	type counts struct{ cache, local float64 }
	cases := []struct {
		name string
		req  fedshap.JobRequest
		warm bool // run the job once before the counted one
		want map[int]counts
	}{
		{"warm-exact", fedshap.JobRequest{N: 6, Algorithm: "exact", Seed: 3}, true,
			map[int]counts{1: {64, 0}, 3: {64, 0}}},
		{"drive-ipss", fedshap.JobRequest{N: 6, Algorithm: "ipss", Gamma: 40, Seed: 7, Confidence: 0.9}, false,
			map[int]counts{1: {80, 40}, 3: {80, 40}}},
		{"observe-tmc", fedshap.JobRequest{N: 6, Algorithm: "tmc", Gamma: 40, Seed: 7, Confidence: 0.9}, false,
			map[int]counts{1: {39, 40}, 3: {42, 40}}},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 3} {
			m, err := NewManager(Config{Workers: 1, CacheDir: t.TempDir(), BuildProblem: gameBuilder(0, nil)})
			if err != nil {
				t.Fatal(err)
			}
			h := NewHandler(m)
			req := tc.req
			req.Workers = workers
			runs := 1
			if tc.warm {
				runs = 2
			}
			var before map[string]float64
			for i := range runs {
				before = scrapeProm(t, h)
				st, err := m.Submit(req)
				if err != nil {
					t.Fatal(err)
				}
				if fin := waitState(t, m, st.ID, terminal); fin.State != fedshap.JobDone {
					t.Fatalf("%s workers=%d run %d: %s (%s)", tc.name, workers, i, fin.State, fin.Error)
				}
			}
			after := scrapeProm(t, h)
			m.Close()
			got := counts{after[cache] - before[cache], after[local] - before[local]}
			if want := tc.want[workers]; got != want {
				t.Errorf("%s workers=%d: cache %v local %v samples, want cache %v local %v",
					tc.name, workers, got.cache, got.local, want.cache, want.local)
			}
		}
	}
}
