package valserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"math"

	"fedshap"
	"fedshap/internal/combin"
	"fedshap/internal/experiments"
	"fedshap/internal/resilience"
)

// TestDegradedModeFlipCompleteRestore is the degraded-persistence
// contract end to end: a failing disk mid-run flips the manager to
// memory-only operation, jobs submitted while degraded still complete,
// and once writes succeed again the probe restores persistence — with
// the restored journal and store complete enough that a restarted
// manager sees every job and report.
func TestDegradedModeFlipCompleteRestore(t *testing.T) {
	dir := t.TempDir()
	hook := &resilience.Hook{}
	cfg := Config{
		Workers:            1,
		CacheDir:           filepath.Join(dir, "cache"),
		JournalPath:        filepath.Join(dir, "journal.jsonl"),
		Fault:              hook,
		DegradedProbeEvery: 30 * time.Millisecond,
		BuildProblem:       gameBuilder(0, nil),
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}

	req := fedshap.JobRequest{N: 4, Algorithm: "ipss", Gamma: 6}

	// Job 1 completes healthy.
	st1, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	done1 := waitState(t, m, st1.ID, terminal)
	if done1.State != fedshap.JobDone {
		t.Fatalf("healthy job state = %s", done1.State)
	}
	if m.Degraded() {
		t.Fatal("manager degraded with no fault injected")
	}

	// Disk starts failing: the next persistence write flips the manager.
	hook.Set(func(op string) error { return errors.New("induced: disk full") })
	req2 := req
	req2.Seed = 2 // distinct fingerprint: forces fresh evals and store writes
	st2, err := m.Submit(req2)
	if err != nil {
		t.Fatalf("submit while disk failing: %v", err)
	}
	done2 := waitState(t, m, st2.ID, terminal)
	if done2.State != fedshap.JobDone || done2.Report == nil {
		t.Fatalf("degraded job state = %s (report %v)", done2.State, done2.Report != nil)
	}
	if !m.Degraded() {
		t.Fatal("manager not degraded after persistence write failures")
	}
	if got := m.Metrics(); !got.Degraded {
		t.Fatal("Metrics().Degraded = false while degraded")
	}

	// Disk heals: the probe must clear the flag and flush the buffer.
	hook.Set(nil)
	deadline := time.Now().Add(10 * time.Second)
	for m.Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("manager never recovered after the fault cleared")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A clean close must not report the stale write error.
	if err := m.Close(); err != nil {
		t.Fatalf("Close after recovery: %v", err)
	}

	// A restarted manager replays both jobs with their reports — the
	// restore rewrote the journal from live state, so nothing written
	// into the failing-disk window is missing.
	m2, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	for _, id := range []string{st1.ID, st2.ID} {
		st, err := m2.Get(id)
		if err != nil {
			t.Fatalf("job %s lost across degrade/restore/restart: %v", id, err)
		}
		if st.State != fedshap.JobDone || st.Report == nil {
			t.Fatalf("job %s replayed as %s (report %v)", id, st.State, st.Report != nil)
		}
	}
}

// TestDegradedJobBitIdentical checks the acceptance bar directly: a job
// submitted during degraded operation produces the same values as the
// identical job submitted healthy.
func TestDegradedJobBitIdentical(t *testing.T) {
	dir := t.TempDir()
	hook := &resilience.Hook{}
	m, err := NewManager(Config{
		Workers:            1,
		CacheDir:           filepath.Join(dir, "cache"),
		JournalPath:        filepath.Join(dir, "journal.jsonl"),
		Fault:              hook,
		DegradedProbeEvery: 20 * time.Millisecond,
		BuildProblem:       gameBuilder(0, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	req := fedshap.JobRequest{N: 5, Algorithm: "ipss", Gamma: 8}
	healthy, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	ref := waitState(t, m, healthy.ID, terminal)

	hook.Set(func(op string) error { return errors.New("induced: disk full") })
	// A different seed forces fresh evaluations (the first job's cache
	// would otherwise answer everything); then compare against the same
	// seed resubmitted after recovery.
	reqB := req
	reqB.Seed = 3
	degradedJob, err := m.Submit(reqB)
	if err != nil {
		t.Fatal(err)
	}
	degSt := waitState(t, m, degradedJob.ID, terminal)
	if !m.Degraded() {
		t.Fatal("manager not degraded")
	}
	hook.Set(nil)

	again, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	againSt := waitState(t, m, again.ID, terminal)

	if ref.Report == nil || againSt.Report == nil || degSt.Report == nil {
		t.Fatal("missing reports")
	}
	if len(ref.Report.Values) != len(againSt.Report.Values) {
		t.Fatal("value length mismatch")
	}
	for i := range ref.Report.Values {
		if ref.Report.Values[i] != againSt.Report.Values[i] {
			t.Fatalf("value[%d] differs across degrade window: %v vs %v",
				i, ref.Report.Values[i], againSt.Report.Values[i])
		}
	}
}

// TestDegradedStoreFaultKeepsJournal: a fault on store writes alone
// degrades the manager but not the journal, which keeps recording every
// transition, so a crash before the next probe replays finished jobs as
// finished rather than rerunning them. Once the disk heals, appends only
// queue behind the backlog: the manager stays degraded until a probe
// flushes it.
func TestDegradedStoreFaultKeepsJournal(t *testing.T) {
	dir := t.TempDir()
	hook := &resilience.Hook{}
	m, err := NewManager(Config{
		Workers:            1,
		CacheDir:           filepath.Join(dir, "cache"),
		JournalPath:        filepath.Join(dir, "journal.jsonl"),
		Fault:              hook,
		DegradedProbeEvery: time.Hour, // the test drives the recovery attempt
		BuildProblem:       gameBuilder(0, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	run := func(seed int64) string {
		t.Helper()
		st, err := m.Submit(fedshap.JobRequest{N: 4, Algorithm: "ipss", Gamma: 6, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if done := waitState(t, m, st.ID, terminal); done.State != fedshap.JobDone {
			t.Fatalf("job %s state = %s", st.ID, done.State)
		}
		return st.ID
	}

	hook.Set(func(op string) error {
		if op == "store.append" {
			return errors.New("induced: cache disk full")
		}
		return nil
	})
	ids := []string{run(1)}
	if !m.Degraded() || m.Journal().failure() != nil {
		t.Fatalf("store-only fault: Degraded() = %v, journal error %v; want degraded with a healthy journal",
			m.Degraded(), m.Journal().failure())
	}
	hook.Set(nil)
	ids = append(ids, run(2))
	pending := m.Store().PendingWrites()
	if pending == 0 || !m.Degraded() {
		t.Fatalf("healed disk before any probe: %d pending writes, Degraded() = %v; want the backlog held for the probe",
			pending, m.Degraded())
	}

	replayed, err := m.Journal().Replay()
	if err != nil {
		t.Fatal(err)
	}
	state := make(map[string]fedshap.JobState)
	for _, st := range replayed {
		state[st.ID] = st.State
	}
	for _, id := range ids {
		if state[id] != fedshap.JobDone {
			t.Errorf("journal replays job %s as %q, want done", id, state[id])
		}
	}

	if err := m.tryRestore(); err != nil {
		t.Fatal(err)
	}
	if n := m.Store().PendingWrites(); n != 0 || m.Degraded() {
		t.Fatalf("after one healthy probe: %d pending writes, Degraded() = %v", n, m.Degraded())
	}
}

// TestDegradedTracksItsSource pins degraded mode to its two sources under
// a flapping disk. Each round races a recovery attempt against concurrent
// store and journal appends; afterwards Degraded must be exactly "store
// writes pending or journal latched", and every utility must be on disk
// or still buffered — none stranded, none lost. The disk cycles through
// a healthy round, two failing rounds and a round in which it fails from
// some point on, so the fault also flips while writes are in flight.
// With the fault off, one attempt drains the buffer and leaves the
// manager healthy.
func TestDegradedTracksItsSource(t *testing.T) {
	dir := t.TempDir()
	hook := &resilience.Hook{}
	m, err := NewManager(Config{
		Workers:            1,
		CacheDir:           filepath.Join(dir, "cache"),
		JournalPath:        filepath.Join(dir, "journal.jsonl"),
		Fault:              hook,
		DegradedProbeEvery: time.Hour, // the test drives every recovery attempt
		BuildProblem:       gameBuilder(0, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var down atomic.Bool
	hook.Set(func(op string) error {
		if down.Load() {
			return errors.New("induced: flapping disk")
		}
		return nil
	})

	const fp, rounds, appenders, perAppender = "flapping", 100, 3, 4
	st, jl := m.Store(), m.Journal()
	check := func(when string, appended int) {
		t.Helper()
		pending, latched := st.PendingWrites(), jl.failure() != nil
		if got, want := m.Degraded(), pending > 0 || latched; got != want {
			t.Fatalf("%s: Degraded() = %v with %d pending writes and journal latched %v", when, got, pending, latched)
		}
		onDisk, err := st.Load(fp)
		if err != nil {
			t.Fatal(err)
		}
		if len(onDisk)+pending != appended {
			t.Fatalf("%s: %d utilities on disk + %d pending, want %d appended", when, len(onDisk), pending, appended)
		}
	}
	appended, degradedRounds := 0, 0
	for round := 0; round < rounds; round++ {
		phase := round % 4
		down.Store(phase == 1 || phase == 2)
		var wg sync.WaitGroup
		if phase == 3 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				down.Store(true)
			}()
		}
		for a := 0; a < appenders; a++ {
			first := appended
			appended += perAppender
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := first; i < first+perAppender; i++ {
					_ = st.Append(fp, combin.FromWords(uint64(i)+1, 0), float64(i))
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			jl.Append(EventSubmitted, &fedshap.JobStatus{ID: fmt.Sprintf("j%04d-flap", round)})
		}()
		_ = m.tryRestore()
		wg.Wait()
		check(fmt.Sprintf("round %d", round), appended)
		if m.Degraded() {
			degradedRounds++
		}
	}
	if degradedRounds == 0 || degradedRounds == rounds {
		t.Fatalf("degraded after %d of %d rounds: the flapping disk must leave both states", degradedRounds, rounds)
	}

	down.Store(false)
	if err := m.tryRestore(); err != nil {
		t.Fatalf("recovery with the fault off: %v", err)
	}
	if n := st.PendingWrites(); n != 0 || m.Degraded() {
		t.Fatalf("after one healthy probe: %d pending writes, Degraded() = %v", n, m.Degraded())
	}
	check("healthy", appended)
}

// logCapture is a slog.Handler recording every message, for tests that
// assert which log lines a code path emits.
type logCapture struct {
	mu   sync.Mutex
	msgs []string
}

func (c *logCapture) Enabled(context.Context, slog.Level) bool { return true }
func (c *logCapture) WithAttrs([]slog.Attr) slog.Handler       { return c }
func (c *logCapture) WithGroup(string) slog.Handler            { return c }

func (c *logCapture) Handle(_ context.Context, r slog.Record) error {
	c.mu.Lock()
	c.msgs = append(c.msgs, r.Message)
	c.mu.Unlock()
	return nil
}

// count reports how many recorded messages contain substr.
func (c *logCapture) count(substr string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, msg := range c.msgs {
		if strings.Contains(msg, substr) {
			n++
		}
	}
	return n
}

// TestDegradedLogsAndSeries is the disk-full row of the failure-mode
// table, observed the way an operator would: over one degrade/restore
// cycle the "entering degraded" and "leaving degraded" log lines each
// appear exactly once, and the fedvald_degraded and
// fedvald_store_pending_writes series rise and return to zero.
func TestDegradedLogsAndSeries(t *testing.T) {
	dir := t.TempDir()
	hook := &resilience.Hook{}
	logs := &logCapture{}
	m, err := NewManager(Config{
		Workers:            1,
		CacheDir:           filepath.Join(dir, "cache"),
		JournalPath:        filepath.Join(dir, "journal.jsonl"),
		Fault:              hook,
		DegradedProbeEvery: 10 * time.Millisecond,
		BuildProblem:       gameBuilder(0, nil),
		Logger:             slog.New(logs),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	h := NewHandler(m)
	series := func() (degraded, pending float64) {
		s := scrapeProm(t, h)
		return s["fedvald_degraded"], s["fedvald_store_pending_writes"]
	}
	waitLog := func(substr string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for logs.count(substr) == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("no %q log line", substr)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	const entering, leaving = "entering degraded", "leaving degraded"

	if d, p := series(); d != 0 || p != 0 {
		t.Fatalf("healthy: fedvald_degraded %v, fedvald_store_pending_writes %v", d, p)
	}
	hook.Set(func(op string) error { return errors.New("induced: disk full") })
	st, err := m.Submit(fedshap.JobRequest{N: 4, Algorithm: "ipss", Gamma: 6})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, terminal)
	if d, p := series(); d != 1 || p == 0 {
		t.Fatalf("disk full: fedvald_degraded %v, fedvald_store_pending_writes %v; want 1 and > 0", d, p)
	}
	waitLog(entering)

	hook.Set(nil)
	waitLog(leaving)
	if d, p := series(); d != 0 || p != 0 {
		t.Fatalf("restored: fedvald_degraded %v, fedvald_store_pending_writes %v", d, p)
	}
	for _, line := range []string{entering, leaving} {
		if n := logs.count(line); n != 1 {
			t.Errorf("%q logged %d times over one cycle, want once", line, n)
		}
	}
}

// TestJobDeadlineTimesOut submits a job whose per-eval delay guarantees
// it overruns its DeadlineSeconds and checks it terminates as timed_out
// with the deadline in the error, counted in the metrics snapshot.
func TestJobDeadlineTimesOut(t *testing.T) {
	m, err := NewManager(Config{
		Workers: 1,
		// One evaluation slot: 40 evaluations × 20ms is 800ms of work against
		// a 100ms deadline on any core count. Sized by GOMAXPROCS, eight
		// slots would finish in exactly the deadline.
		EvalWorkers:  1,
		BuildProblem: gameBuilder(20*time.Millisecond, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	req := fedshap.JobRequest{N: 6, Algorithm: "ipss", Gamma: 40, DeadlineSeconds: 0.1}
	st, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	end := waitState(t, m, st.ID, terminal)
	if end.State != fedshap.JobTimedOut {
		t.Fatalf("state = %s, want %s (error %q)", end.State, fedshap.JobTimedOut, end.Error)
	}
	if !strings.Contains(end.Error, "deadline exceeded") {
		t.Errorf("error = %q, want mention of the deadline", end.Error)
	}
	if mt := m.Metrics(); mt.Jobs.TimedOut != 1 {
		t.Errorf("Metrics().Jobs.TimedOut = %d, want 1", mt.Jobs.TimedOut)
	}
}

// TestDeadlineValidation rejects non-finite and negative deadlines.
func TestDeadlineValidation(t *testing.T) {
	m, err := NewManager(Config{Workers: 1, BuildProblem: gameBuilder(0, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, d := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := m.Submit(fedshap.JobRequest{N: 4, Algorithm: "ipss", Gamma: 4, DeadlineSeconds: d}); err == nil {
			t.Errorf("Submit with deadline_seconds=%v accepted", d)
		}
	}
}

// TestQueueFull429RetryAfter drives the HTTP layer: queue saturation is
// 429 Too Many Requests with a Retry-After hint, not 503.
func TestQueueFull429RetryAfter(t *testing.T) {
	gate := make(chan struct{})
	m, err := NewManager(Config{
		Workers:  1,
		QueueCap: 1,
		BuildProblem: func(req fedshap.JobRequest) (*experiments.Problem, error) {
			<-gate
			return gameBuilder(0, nil)(req)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	defer close(gate)

	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	req := fedshap.JobRequest{N: 4, Algorithm: "ipss", Gamma: 4}
	post := func() *http.Response {
		body, _ := json.Marshal(req)
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	first := post()
	if first.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", first.StatusCode)
	}
	var st1 fedshap.JobStatus
	_ = json.NewDecoder(first.Body).Decode(&st1)
	waitState(t, m, st1.ID, func(s *fedshap.JobStatus) bool { return s.State == fedshap.JobRunning })

	if second := post(); second.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d", second.StatusCode)
	}
	third := post()
	if third.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full submit: %d, want 429", third.StatusCode)
	}
	ra, err := strconv.Atoi(third.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want integer seconds >= 1", third.Header.Get("Retry-After"))
	}
}

// TestHealthzDegraded reports degraded (still 200) on the liveness probe.
func TestHealthzDegraded(t *testing.T) {
	dir := t.TempDir()
	hook := &resilience.Hook{}
	m, err := NewManager(Config{
		Workers:            1,
		JournalPath:        filepath.Join(dir, "journal.jsonl"),
		Fault:              hook,
		DegradedProbeEvery: time.Hour, // keep it degraded for the assertion
		BuildProblem:       gameBuilder(0, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	health := func() string {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz status = %d", resp.StatusCode)
		}
		var body map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&body)
		return body["status"]
	}

	if got := health(); got != "ok" {
		t.Fatalf("healthy /healthz status = %q", got)
	}
	hook.Set(func(op string) error { return errors.New("induced: disk full") })
	st, err := m.Submit(fedshap.JobRequest{N: 4, Algorithm: "ipss", Gamma: 4})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, terminal)
	if !m.Degraded() {
		t.Fatal("manager not degraded")
	}
	if got := health(); got != "degraded" {
		t.Fatalf("degraded /healthz status = %q", got)
	}
}

// TestNonFiniteUtilityFailsOnlyItsJob: a NaN or +Inf utility is that job's
// failure. It must not reach the store — json.Marshal rejects it, and a
// failed append used to flip the whole daemon into degraded mode — and a
// job running beside it completes.
func TestNonFiniteUtilityFailsOnlyItsJob(t *testing.T) {
	for _, workers := range []int{1, 2} { // reduce-only and prefetch → reduce
		for _, poison := range []float64{math.NaN(), math.Inf(1)} {
			dir := t.TempDir()
			m, err := NewManager(Config{
				Workers:     2,
				EvalWorkers: workers,
				CacheDir:    filepath.Join(dir, "cache"),
				JournalPath: filepath.Join(dir, "journal.jsonl"),
				BuildProblem: func(req fedshap.JobRequest) (*experiments.Problem, error) {
					if req.N != 3 {
						return gameBuilder(time.Millisecond, nil)(req)
					}
					return experiments.NewFuncProblem("diverged", req.N, func(s combin.Coalition) float64 {
						if s.Size() == 2 {
							return poison
						}
						return float64(s.Size())
					}), nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			good, err := m.Submit(fedshap.JobRequest{N: 5, Algorithm: "exact"})
			if err != nil {
				t.Fatal(err)
			}
			bad, err := m.Submit(fedshap.JobRequest{N: 3, Algorithm: "exact"})
			if err != nil {
				t.Fatal(err)
			}
			if fin := waitState(t, m, bad.ID, terminal); fin.State != fedshap.JobFailed || !strings.Contains(fin.Error, "non-finite utility") {
				t.Errorf("%v workers=%d: diverged job: %s (%q), want failed naming the non-finite utility", poison, workers, fin.State, fin.Error)
			}
			if fin := waitState(t, m, good.ID, terminal); fin.State != fedshap.JobDone {
				t.Errorf("%v workers=%d: concurrent job: %s (%s)", poison, workers, fin.State, fin.Error)
			}
			if m.Degraded() {
				t.Errorf("%v workers=%d: one job's utility degraded the daemon", poison, workers)
			}
			m.Close()
		}
	}
}

// TestPooledNonFiniteTrainedOnce: a non-finite utility met by the prefetch
// pool ends the job there. The reduction must not retrain the coalitions
// the stopped pool left, and above all not the failing coalition itself.
func TestPooledNonFiniteTrainedOnce(t *testing.T) {
	poisoned := combin.NewCoalition(0, 2)
	var poisonEvals atomic.Int64
	m, err := NewManager(Config{
		Workers: 1,
		BuildProblem: func(req fedshap.JobRequest) (*experiments.Problem, error) {
			return experiments.NewFuncProblem("one-nan", req.N, func(s combin.Coalition) float64 {
				if s == poisoned {
					poisonEvals.Add(1)
					return math.NaN()
				}
				return float64(s.Size())
			}), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st, err := m.Submit(fedshap.JobRequest{N: 5, Algorithm: "exact", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitState(t, m, st.ID, terminal); fin.State != fedshap.JobFailed || !strings.Contains(fin.Error, "non-finite utility") {
		t.Fatalf("job: %s (%q), want failed naming the non-finite utility", fin.State, fin.Error)
	}
	if got := poisonEvals.Load(); got != 1 {
		t.Errorf("the NaN coalition was evaluated %d times, want 1", got)
	}
}
