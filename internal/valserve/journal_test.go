package valserve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fedshap"
	"fedshap/internal/experiments"
)

func tmpJournal(t *testing.T) *Journal {
	t.Helper()
	jl, err := OpenJournal(filepath.Join(t.TempDir(), "jobs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	jl.ProgressEvery = 0 // no throttling in unit tests unless asked
	return jl
}

func statusFor(id string, state fedshap.JobState, fresh int) *fedshap.JobStatus {
	st := &fedshap.JobStatus{
		ID:          id,
		State:       state,
		Request:     fedshap.JobRequest{Data: "femnist", Model: "mlp", N: 4, Algorithm: "ipss"},
		Fingerprint: "fp-" + id,
		Budget:      10,
		FreshEvals:  fresh,
		SubmittedAt: time.Now().UTC(),
	}
	if state.Terminal() {
		now := time.Now().UTC()
		st.FinishedAt = &now
	}
	return st
}

// TestJournalReplayLastWins: replay returns one status per job — the last
// record — in first-appearance order, and survives a torn tail line.
func TestJournalReplayLastWins(t *testing.T) {
	jl := tmpJournal(t)
	defer jl.Close()

	jl.Append(EventSubmitted, statusFor("j0001-aa", fedshap.JobQueued, 0))
	jl.Append(EventRunning, statusFor("j0001-aa", fedshap.JobRunning, 0))
	jl.Append(EventSubmitted, statusFor("j0002-bb", fedshap.JobQueued, 0))
	jl.Append(EventProgress, statusFor("j0001-aa", fedshap.JobRunning, 5))
	done := statusFor("j0001-aa", fedshap.JobDone, 9)
	done.Report = &fedshap.Report{Algorithm: "ipss", Values: []float64{1, 2, 3, 4}, Names: []string{"a", "b", "c", "d"}}
	jl.Append(EventDone, done)

	// A torn tail write (crash mid-append) must be skipped on replay.
	f, err := os.OpenFile(jl.Path(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"event":"progress","id":"j0002-bb","sta`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, err := jl.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("replayed %d jobs, want 2", len(got))
	}
	if got[0].ID != "j0001-aa" || got[1].ID != "j0002-bb" {
		t.Errorf("replay order = %s, %s; want submission order", got[0].ID, got[1].ID)
	}
	if got[0].State != fedshap.JobDone || got[0].FreshEvals != 9 {
		t.Errorf("last record did not win: %+v", got[0])
	}
	if got[0].Report == nil || got[0].Report.Values[2] != 3 {
		t.Errorf("done record lost its report: %+v", got[0].Report)
	}
	if got[1].State != fedshap.JobQueued {
		t.Errorf("job 2 state = %s, want queued", got[1].State)
	}
}

// TestJournalCompact: compaction rewrites to one line per surviving job
// and drops jobs not in the live set (TTL expiry path).
func TestJournalCompact(t *testing.T) {
	jl := tmpJournal(t)
	defer jl.Close()

	for i := 0; i < 10; i++ {
		jl.Append(EventProgress, statusFor("j0001-aa", fedshap.JobRunning, i))
	}
	jl.Append(EventDone, statusFor("j0002-bb", fedshap.JobDone, 4))

	live := []*fedshap.JobStatus{statusFor("j0001-aa", fedshap.JobRunning, 9)}
	if err := jl.Compact(live); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jl.Path())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(data), "\n")
	if lines != 1 {
		t.Errorf("compacted journal has %d lines, want 1:\n%s", lines, data)
	}
	got, err := jl.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != "j0001-aa" {
		t.Fatalf("after compact: %d jobs (want only j0001-aa): %+v", len(got), got)
	}

	// Appends after compaction land in the replaced file.
	jl.Append(EventDone, statusFor("j0001-aa", fedshap.JobDone, 9))
	got, err = jl.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].State != fedshap.JobDone {
		t.Fatalf("append after compact lost: %+v", got)
	}
}

// TestJournalProgressThrottle: progress records are rate-limited per job;
// lifecycle transitions never are.
func TestJournalProgressThrottle(t *testing.T) {
	jl := tmpJournal(t)
	defer jl.Close()
	jl.ProgressEvery = time.Hour

	for i := 1; i <= 50; i++ {
		jl.Append(EventProgress, statusFor("j0001-aa", fedshap.JobRunning, i))
	}
	jl.Append(EventDone, statusFor("j0001-aa", fedshap.JobDone, 50))
	data, err := os.ReadFile(jl.Path())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(data), "\n")
	// One throttled progress checkpoint plus the terminal record.
	if lines != 2 {
		t.Errorf("journal has %d lines, want 2 (throttled progress + done)", lines)
	}
}

// TestManagerRestartRecovery is the tentpole guarantee, in-process: a
// manager dies (abandoned, not closed — as in a crash) with one job done,
// one running and one cancelled. A new manager over the same journal and
// store must (1) serve the done job's report bit-identically without
// recomputation, (2) keep the cancelled job terminal, and (3) requeue the
// interrupted job, which starts warm from everything the done job
// persisted and trains only the rest.
func TestManagerRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	journal := filepath.Join(dir, "jobs.jsonl")

	gate := make(chan struct{})
	m1, err := NewManager(Config{
		Workers:  1,
		CacheDir: cache,
		// The interrupted job (exact) hangs in problem construction,
		// which its first cold coalition starts, until the gate opens —
		// the crash leaves it journaled as running.
		JournalPath: journal,
		BuildProblem: func(req fedshap.JobRequest) (*experiments.Problem, error) {
			if req.Algorithm == "exact" {
				<-gate
				return nil, errors.New("crashed")
			}
			return gameBuilder(0, nil)(req)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { close(gate) }) // release the abandoned worker

	// Job A: kgreedy over n=5 persists ∅ and the five singletons.
	req := fedshap.JobRequest{N: 5, Algorithm: "kgreedy", K: 1, Seed: 3}
	stA, err := m1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	finA := waitState(t, m1, stA.ID, terminal)
	if finA.State != fedshap.JobDone || finA.FreshEvals != 6 {
		t.Fatalf("job A: %s fresh=%d (%s)", finA.State, finA.FreshEvals, finA.Error)
	}

	// Job B: same problem fingerprint, stuck mid-run at the crash.
	stB, err := m1.Submit(fedshap.JobRequest{N: 5, Algorithm: "exact", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, stB.ID, func(s *fedshap.JobStatus) bool { return s.State == fedshap.JobRunning })

	// Job C: queued behind B, cancelled by the user before the crash.
	stC, err := m1.Submit(fedshap.JobRequest{N: 4, Algorithm: "ipss", Gamma: 6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Cancel(stC.ID); err != nil {
		t.Fatal(err)
	}
	// m1 is now abandoned without Close: the crash.

	m2, err := NewManager(Config{
		Workers:      1,
		CacheDir:     cache,
		JournalPath:  journal,
		BuildProblem: gameBuilder(0, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()

	// (1) Job A: recovered done, report bit-identical, never re-run.
	recA, err := m2.Get(stA.ID)
	if err != nil {
		t.Fatalf("job A not recovered: %v", err)
	}
	if recA.State != fedshap.JobDone || recA.Report == nil {
		t.Fatalf("job A recovered as %s (report %v)", recA.State, recA.Report)
	}
	for i := range finA.Report.Values {
		if finA.Report.Values[i] != recA.Report.Values[i] {
			t.Errorf("recovered value[%d] = %v, want %v", i, recA.Report.Values[i], finA.Report.Values[i])
		}
	}

	// (2) Job C: cancelled stays cancelled, not resubmitted.
	recC, err := m2.Get(stC.ID)
	if err != nil {
		t.Fatalf("job C not recovered: %v", err)
	}
	if recC.State != fedshap.JobCancelled {
		t.Errorf("job C recovered as %s, want cancelled", recC.State)
	}

	// (3) Job B: requeued under its original ID, warm from job A's
	// coalitions, trains only the rest of the power set.
	finB := waitState(t, m2, stB.ID, terminal)
	if finB.State != fedshap.JobDone {
		t.Fatalf("job B after restart: %s (%s)", finB.State, finB.Error)
	}
	if finB.WarmedCoalitions != finA.FreshEvals {
		t.Errorf("job B warmed %d, want job A's %d persisted coalitions", finB.WarmedCoalitions, finA.FreshEvals)
	}
	if want := 32 - finA.FreshEvals; finB.FreshEvals != want {
		t.Errorf("replayed job B fresh evals = %d, want %d (warm start)", finB.FreshEvals, want)
	}

	// New IDs don't collide with replayed ones.
	stD, err := m2.Submit(fedshap.JobRequest{N: 4, Algorithm: "ipss", Gamma: 6, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if stD.ID == stA.ID || stD.ID == stB.ID || stD.ID == stC.ID {
		t.Errorf("new job reused a replayed ID: %s", stD.ID)
	}
	if idOrdinal(stD.ID) <= idOrdinal(stC.ID) {
		t.Errorf("ID ordinal did not advance past replayed jobs: %s vs %s", stD.ID, stC.ID)
	}
}

// TestGracefulShutdownRequeuesInterrupted: Close (SIGTERM path) must
// journal still-running jobs as queued, so a graceful restart resumes
// them instead of abandoning them as cancelled.
func TestGracefulShutdownRequeuesInterrupted(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "jobs.jsonl")

	gate := make(chan struct{})
	var once bool
	m1, err := NewManager(Config{
		Workers:     1,
		JournalPath: journal,
		CacheDir:    filepath.Join(dir, "cache"),
		BuildProblem: func(req fedshap.JobRequest) (*experiments.Problem, error) {
			if !once {
				once = true
				<-gate // held until Close cancels the job's context… never: gate closes below
			}
			return gameBuilder(0, nil)(req)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m1.Submit(fedshap.JobRequest{N: 4, Algorithm: "ipss", Gamma: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, st.ID, func(s *fedshap.JobStatus) bool { return s.State == fedshap.JobRunning })
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(gate) // let the builder return so Close can drain
	}()
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := NewManager(Config{
		Workers:      1,
		JournalPath:  journal,
		CacheDir:     filepath.Join(dir, "cache"),
		BuildProblem: gameBuilder(0, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	fin := waitState(t, m2, st.ID, terminal)
	if fin.State != fedshap.JobDone {
		t.Errorf("interrupted job after graceful restart: %s (%s), want done", fin.State, fin.Error)
	}
}

// TestRecoveryBacklogExceedsQueueCap: a journal holding more interrupted
// jobs than QueueCap must recover all of them — jobs that survived a
// crash are never failed for queue-capacity reasons — while new
// submissions stay bounded by the configured cap.
func TestRecoveryBacklogExceedsQueueCap(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.jsonl")
	jl, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 5; i++ {
		st := statusFor(fmt.Sprintf("j%04d-recov", i+1), fedshap.JobRunning, 3)
		st.Request = fedshap.JobRequest{N: 4, Algorithm: "ipss", Gamma: 6, Seed: int64(i + 1)}
		jl.Append(EventRunning, st)
		ids = append(ids, st.ID)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	m, err := NewManager(Config{
		Workers:      1,
		QueueCap:     2, // smaller than the recovered backlog
		JournalPath:  path,
		BuildProblem: gameBuilder(0, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, id := range ids {
		fin := waitState(t, m, id, terminal)
		if fin.State != fedshap.JobDone {
			t.Errorf("recovered job %s: %s (%s), want done", id, fin.State, fin.Error)
		}
	}
}

// TestJobTTLExpiry: terminal jobs past the TTL vanish from the API and —
// via journal compaction — from the next restart.
func TestJobTTLExpiry(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "jobs.jsonl")
	mk := func() *Manager {
		m, err := NewManager(Config{
			Workers:      1,
			JournalPath:  journal,
			JobTTL:       30 * time.Millisecond,
			GCInterval:   time.Hour, // sweeps are manual in this test
			BuildProblem: gameBuilder(0, nil),
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := mk()
	st, err := m.Submit(fedshap.JobRequest{N: 4, Algorithm: "ipss", Gamma: 6})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, terminal)

	if n := m.SweepExpired(); n != 0 {
		t.Errorf("sweep expired %d jobs before the TTL elapsed", n)
	}
	time.Sleep(50 * time.Millisecond)
	if n := m.SweepExpired(); n != 1 {
		t.Errorf("sweep expired %d jobs, want 1", n)
	}
	if _, err := m.Get(st.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("expired job still served: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// The expired job must not come back on restart.
	m2 := mk()
	defer m2.Close()
	if _, err := m2.Get(st.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("expired job resurrected after restart: %v", err)
	}
}

// TestJournalInsideCacheDirRejected: a .jsonl journal inside the cache
// directory would be rewritten as utilities by store compaction; the
// manager must refuse the configuration.
func TestJournalInsideCacheDirRejected(t *testing.T) {
	dir := t.TempDir()
	_, err := NewManager(Config{
		CacheDir:    dir,
		JournalPath: filepath.Join(dir, "jobs.jsonl"),
	})
	if err == nil {
		t.Fatal("manager accepted a journal inside the cache directory")
	}

	// A relative cache dir naming the same directory as an absolute
	// journal path must be caught too (the guard resolves both).
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewManager(Config{
		CacheDir:    "relative-cache",
		JournalPath: filepath.Join(cwd, "relative-cache", "jobs.jsonl"),
	})
	if err == nil {
		t.Fatal("manager accepted a relative-cache/absolute-journal collision")
	}
}

// TestWatchEventSequence: a watcher attached to a queued job sees
// submitted → running → progress… → done, with monotone fresh counts and
// a closed channel after the terminal event.
func TestWatchEventSequence(t *testing.T) {
	gate := make(chan struct{})
	var first = true
	m, err := NewManager(Config{
		Workers:     1,
		EvalWorkers: 1,
		BuildProblem: func(req fedshap.JobRequest) (*experiments.Problem, error) {
			if first {
				first = false
				<-gate // hold the single worker so the watched job stays queued
			}
			return gameBuilder(0, nil)(req)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	if _, _, err := m.Watch("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Watch(unknown) err = %v, want ErrNotFound", err)
	}

	blocker, err := m.Submit(fedshap.JobRequest{N: 3, Algorithm: "ipss", Gamma: 4})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, blocker.ID, func(s *fedshap.JobStatus) bool { return s.State == fedshap.JobRunning })
	st, err := m.Submit(fedshap.JobRequest{N: 4, Algorithm: "exact"})
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := m.Watch(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	close(gate)

	var types []string
	fresh := -1
	deadline := time.After(30 * time.Second)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				goto doneStream
			}
			if len(types) == 0 || types[len(types)-1] != ev.Type {
				types = append(types, ev.Type)
			}
			if ev.Status.FreshEvals < fresh && ev.Type == EventProgress {
				t.Errorf("progress went backwards: %d after %d", ev.Status.FreshEvals, fresh)
			}
			if ev.Status.FreshEvals > fresh {
				fresh = ev.Status.FreshEvals
			}
		case <-deadline:
			t.Fatal("event stream never terminated")
		}
	}
doneStream:
	want := []string{EventSubmitted, EventRunning, EventProgress, EventDone}
	if len(types) != len(want) {
		t.Fatalf("event types = %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("event types = %v, want %v", types, want)
		}
	}
	if fresh != 16 {
		t.Errorf("final fresh count over the stream = %d, want 16 (2^4)", fresh)
	}

	// Watching an already-terminal job yields its snapshot, then closes.
	ch2, cancel2, err := m.Watch(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel2()
	ev := <-ch2
	if ev.Type != EventDone || ev.Status.Report == nil {
		t.Errorf("terminal watch snapshot = %s (report %v)", ev.Type, ev.Status.Report)
	}
	if _, ok := <-ch2; ok {
		t.Error("terminal watch channel not closed after snapshot")
	}
}
