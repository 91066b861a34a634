package valserve

import (
	"fmt"
	"reflect"
	"testing"

	"fedshap"
)

// TestJobTransitionTable walks every (from, to) state pair against
// legalEdges — the table Job.transition itself consults. A legal edge moves
// the job once, stamps StartedAt or FinishedAt, feeds the outcome counter
// and histograms, and emits (and journals) exactly one event named for the
// state entered; every other pair is a no-op that emits nothing, journals
// nothing and moves no counter.
func TestJobTransitionTable(t *testing.T) {
	m, err := NewManager(Config{Workers: 1, JournalPath: t.TempDir() + "/jobs.journal", BuildProblem: gameBuilder(0, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	states := []fedshap.JobState{
		fedshap.JobQueued, fedshap.JobRunning, fedshap.JobDone,
		fedshap.JobFailed, fedshap.JobCancelled, fedshap.JobTimedOut,
	}
	eventFor := map[fedshap.JobState]string{
		fedshap.JobRunning: EventRunning, fedshap.JobDone: EventDone, fedshap.JobFailed: EventFailed,
		fedshap.JobCancelled: EventCancelled, fedshap.JobTimedOut: EventTimedOut,
	}
	// counters reads every instrument a transition may move.
	counters := func() map[string]int64 {
		out := map[string]int64{
			"submitted":  m.tel.jobsSubmitted.Value(),
			"queue_wait": m.tel.queueWait.Count(),
			"duration":   m.tel.jobDuration.Count(),
			"fresh":      m.tel.evalsFresh.Value(),
		}
		for s, c := range m.tel.completed {
			out["completed/"+string(s)] = c.Value()
		}
		return out
	}
	legal := 0
	for _, from := range states {
		for _, to := range states {
			// The job is never enqueued, so no pool worker races the test;
			// it reaches `from` along legal edges only.
			j := m.newJob(fedshap.JobStatus{ID: fmt.Sprintf("t-%s-%s", from, to), State: fedshap.JobQueued}, "submit")
			var events []string
			j.notify = func(event string, st *fedshap.JobStatus) {
				events = append(events, event)
				m.publish(event, st)
			}
			j.emitMu.Lock()
			if from != fedshap.JobQueued {
				if !j.transition(fedshap.JobRunning, "", nil) {
					t.Fatalf("setup: queued → running refused")
				}
				if from != fedshap.JobRunning && !j.transition(from, "setup", nil) {
					t.Fatalf("setup: running → %s refused", from)
				}
			}
			before, beforeCounters, beforeJournal := j.snapshot(), counters(), m.Journal().Size()
			events = nil
			moved := j.transition(to, "because", &fedshap.Report{Algorithm: "x"})
			j.emitMu.Unlock()
			after, afterCounters := j.snapshot(), counters()

			if want := legalEdges[from][to]; moved != want {
				t.Errorf("%s → %s: moved = %v, edge table says %v", from, to, moved, want)
				continue
			}
			if !moved {
				if !reflect.DeepEqual(before, after) {
					t.Errorf("%s → %s (illegal) changed the status: %+v → %+v", from, to, before, after)
				}
				if len(events) != 0 || m.Journal().Size() != beforeJournal {
					t.Errorf("%s → %s (illegal) emitted %v, journal %d → %d bytes", from, to, events, beforeJournal, m.Journal().Size())
				}
				if !reflect.DeepEqual(beforeCounters, afterCounters) {
					t.Errorf("%s → %s (illegal) moved counters: %v → %v", from, to, beforeCounters, afterCounters)
				}
				continue
			}
			moves := map[string]int64{}
			for name, v := range afterCounters {
				if d := v - beforeCounters[name]; d != 0 {
					moves[name] = d
				}
			}
			legal++
			if after.State != to {
				t.Errorf("%s → %s: state = %s", from, to, after.State)
			}
			if len(events) != 1 || events[0] != eventFor[to] {
				t.Errorf("%s → %s: events = %v, want exactly [%s]", from, to, events, eventFor[to])
			}
			if m.Journal().Size() <= beforeJournal {
				t.Errorf("%s → %s: journal did not grow", from, to)
			}
			if to == fedshap.JobRunning {
				if after.StartedAt == nil || after.FinishedAt != nil || after.Error != "" || after.Report != nil {
					t.Errorf("queued → running: StartedAt=%v FinishedAt=%v Error=%q Report=%v", after.StartedAt, after.FinishedAt, after.Error, after.Report)
				}
				if want := map[string]int64{"queue_wait": 1}; !reflect.DeepEqual(moves, want) {
					t.Errorf("queued → running moved %v, want %v", moves, want)
				}
				continue
			}
			if after.FinishedAt == nil || after.Error != "because" || after.Report == nil {
				t.Errorf("%s → %s: FinishedAt=%v Error=%q Report=%v", from, to, after.FinishedAt, after.Error, after.Report)
			}
			if !reflect.DeepEqual(before.StartedAt, after.StartedAt) {
				t.Errorf("%s → %s: StartedAt moved %v → %v", from, to, before.StartedAt, after.StartedAt)
			}
			if want := map[string]int64{"duration": 1, "completed/" + string(to): 1}; !reflect.DeepEqual(moves, want) {
				t.Errorf("%s → %s moved %v, want %v", from, to, moves, want)
			}
		}
	}
	if legal != 6 {
		t.Errorf("walked %d legal edges, the lifecycle has 6", legal)
	}
}
