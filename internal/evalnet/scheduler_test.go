package evalnet

import (
	"context"
	"math"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"fedshap/internal/combin"
	"fedshap/internal/obs"
	"fedshap/internal/utility"
)

// The scheduler tests replay events against a scheduler with recording
// outlets and an explicit clock: no socket, no goroutine, no sleep.

// fakeLink is an outlet that records the frames the scheduler sends.
type fakeLink struct {
	frames []envelope
	hung   bool
}

func (f *fakeLink) send(e envelope) { f.frames = append(f.frames, e) }

func (f *fakeLink) hangup() bool {
	first := !f.hung
	f.hung = true
	return first
}

// count returns how many recorded frames satisfy is.
func (f *fakeLink) count(is func(envelope) bool) int {
	n := 0
	for _, e := range f.frames {
		if is(e) {
			n++
		}
	}
	return n
}

func isCancel(e envelope) bool { return e.Cancel != nil }
func isSpec(e envelope) bool   { return e.Spec != nil }

// at is the test clock: ms milliseconds after an arbitrary origin.
func at(ms int) time.Time {
	return time.Unix(1_700_000_000, 0).Add(time.Duration(ms) * time.Millisecond)
}

// simFleet is a scheduler with named fake workers.
type simFleet struct {
	t     *testing.T
	s     *scheduler
	slots map[string]*slot
	links map[string]*fakeLink
}

func newSimFleet(t *testing.T, cfg SchedulerConfig) *simFleet {
	return &simFleet{t: t, s: newScheduler(cfg), slots: map[string]*slot{}, links: map[string]*fakeLink{}}
}

func (f *simFleet) attach(name string, capacity, ms int) {
	f.t.Helper()
	l := &fakeLink{}
	w := f.s.attach(name, "sim", capacity, l, at(ms))
	if w == nil {
		f.t.Fatalf("attach(%s) refused", name)
	}
	f.slots[name], f.links[name] = w, l
}

// session opens a traced session on the simulated fleet.
func (f *simFleet) session(id string) *Session {
	return newSession(context.Background(), f.s, SessionConfig{
		Spec:  ProblemSpec{ID: id, N: 8},
		Local: additive,
		Trace: obs.NewTrace(),
	})
}

// enqueue queues coalition {i} for sess and returns the task.
func (f *simFleet) enqueue(sess *Session, i, ms int) *task {
	f.t.Helper()
	t := f.s.enqueue(sess, combin.NewCoalition(i), at(ms))
	if t == nil {
		f.t.Fatalf("enqueue(%d) told the caller to evaluate locally", i)
	}
	return t
}

// answer plays worker name's result frame for task t.
func (f *simFleet) answer(name string, t *task, res resultMsg, ms int) {
	res.TaskID = t.id
	f.s.result(f.slots[name], res, at(ms))
}

// heldBy lists the ids of the tasks worker name holds, ascending.
func (f *simFleet) heldBy(name string) []uint64 {
	ids := []uint64{}
	for id := range f.slots[name].held {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

func (f *simFleet) pendingIDs() []uint64 {
	ids := []uint64{}
	for _, t := range f.s.pending {
		ids = append(ids, t.id)
	}
	return ids
}

// outcome reads what, if anything, was delivered to the task's caller.
func outcome(t *task) (taskResult, bool) {
	select {
	case r := <-t.ch:
		return r, true
	default:
		return taskResult{}, false
	}
}

// redispatchEvents returns the attributes of the session's redispatch
// events.
func redispatchEvents(s *Session) []map[string]string {
	var out []map[string]string
	for _, sp := range s.cfg.Trace.Snapshot() {
		if sp.Name == "redispatch" {
			out = append(out, sp.Attrs)
		}
	}
	return out
}

func wantIDs(t *testing.T, what string, got []uint64, want ...uint64) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Errorf("%s = %v, want %v", what, got, want)
	}
}

// TestRequeueOrphans loses a worker's assignments two ways — the worker
// dies, or sits on them past the task deadline — and checks the one
// requeue path: orphans return to the front of the queue in task-id
// order, once, with one redispatch event per affected session and the
// matching counter; the deadline additionally marks the worker suspect
// until a (stale) result proves it alive, which dispatches at once.
func TestRequeueOrphans(t *testing.T) {
	cases := []struct {
		name  string
		lose  func(f *simFleet)
		attrs map[string]string
		// the Requeues and DeadlineRequeues counters afterwards
		death, deadline int64
	}{
		{
			name:  "worker-death",
			lose:  func(f *simFleet) { f.s.lost(f.slots["a"], at(600)) },
			attrs: map[string]string{"reason": "worker-death", "worker": "a", "tasks": "1"},
			death: 2,
		},
		{
			name:     "deadline",
			lose:     func(f *simFleet) { f.s.tick(at(600)) },
			attrs:    map[string]string{"reason": "deadline", "tasks": "1"},
			deadline: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newSimFleet(t, SchedulerConfig{DisableSpeculation: true, TaskDeadline: 500 * time.Millisecond})
			f.attach("a", 2, 0)
			f.attach("b", 1, 0)
			jobA, jobB := f.session("job-a"), f.session("job-b")
			// No latency history: least-loaded picking, ties to the lower id.
			t1 := f.enqueue(jobA, 1, 0) // → a
			t2 := f.enqueue(jobA, 2, 0) // → b
			t3 := f.enqueue(jobB, 3, 0) // → a
			t4 := f.enqueue(jobA, 4, 0) // queued
			t5 := f.enqueue(jobB, 5, 0) // queued
			wantIDs(t, "a holds", f.heldBy("a"), t1.id, t3.id)
			wantIDs(t, "b holds", f.heldBy("b"), t2.id)
			// b answers at 300ms and takes t4, which is young at 600ms.
			f.answer("b", t2, resultMsg{U: 2}, 300)
			wantIDs(t, "b holds", f.heldBy("b"), t4.id)
			// Mark t1 as having spent its speculative copy, to see it reset.
			t1.speculated, t1.specWorker = true, 99

			tc.lose(f)

			wantIDs(t, "pending", f.pendingIDs(), t1.id, t3.id, t5.id)
			if t1.speculated {
				t.Error("requeued task kept its spent speculation entitlement")
			}
			for _, sess := range []*Session{jobA, jobB} {
				evs := redispatchEvents(sess)
				if len(evs) != 1 || !reflect.DeepEqual(evs[0], tc.attrs) {
					t.Errorf("%s redispatch events = %v, want one %v", sess.cfg.Spec.ID, evs, tc.attrs)
				}
			}
			st := f.s.stats()
			if st.Requeues != tc.death || st.DeadlineRequeues != tc.deadline || st.PendingTasks != 3 {
				t.Errorf("stats = requeues %d, deadline %d, pending %d; want %d, %d, 3",
					st.Requeues, st.DeadlineRequeues, st.PendingTasks, tc.death, tc.deadline)
			}
			if _, ok := outcome(t1); ok {
				t.Error("an orphaned task was answered instead of requeued")
			}

			// Losing it again changes nothing.
			tc.lose(f)
			if got := f.s.stats(); got.Requeues != tc.death || got.DeadlineRequeues != tc.deadline {
				t.Errorf("second loss moved the counters: %+v", got)
			}

			if tc.deadline == 0 {
				// b frees its slot: the requeued head goes first.
				f.answer("b", t4, resultMsg{U: 4}, 700)
				wantIDs(t, "b holds", f.heldBy("b"), t1.id)
				return
			}
			// The reaped worker is passed over although it has free slots...
			if !f.slots["a"].suspect || len(f.heldBy("a")) != 0 {
				t.Fatalf("a: suspect %v, holds %v; want suspect and idle", f.slots["a"].suspect, f.heldBy("a"))
			}
			// ...until its stale answer for t1 arrives: discarded, but it
			// lifts the suspicion and the queue drains onto a at once.
			f.answer("a", t1, resultMsg{U: 1}, 700)
			if f.slots["a"].suspect {
				t.Error("a decoded result left the worker suspect")
			}
			wantIDs(t, "a holds", f.heldBy("a"), t1.id, t3.id)
			wantIDs(t, "pending", f.pendingIDs(), t5.id)
			if _, ok := outcome(t1); ok {
				t.Error("a stale result was delivered")
			}
			if done := f.slots["a"].done; done != 0 {
				t.Errorf("stale result counted as completed (%d)", done)
			}
		})
	}
}

// TestSpeculativeTwin sets up one speculated task — the original on
// "slow", the copy on "fast" — and checks what each way of losing one of
// the copies does to delivery, to the requeue path and to the task's
// speculation entitlement.
func TestSpeculativeTwin(t *testing.T) {
	cases := []struct {
		name string
		// event hits one of the two copies at 70ms.
		event func(f *simFleet, t1 *task)
		// delivered: the caller got a utility from event itself.
		delivered bool
		// entitled: the task may be speculated again afterwards.
		entitled bool
		// finish names the remaining copy's holder, which answers last.
		finish string
		// redispatches and wins are the counters at the end, after one more
		// straggler scan has had its chance.
		redispatches, wins int64
	}{
		{
			name:      "copy wins, original's late answer is discarded",
			event:     func(f *simFleet, t1 *task) { f.answer("fast", t1, resultMsg{U: 1}, 70) },
			delivered: true, finish: "slow", redispatches: 1, wins: 1,
		},
		{
			name:     "original dies: the twin owns it, nothing is requeued",
			event:    func(f *simFleet, t1 *task) { f.s.lost(f.slots["slow"], at(70)) },
			entitled: true, finish: "fast", redispatches: 1,
		},
		{
			name:     "copy's worker dies: the original owns it again",
			event:    func(f *simFleet, t1 *task) { f.s.lost(f.slots["fast"], at(70)) },
			entitled: true, finish: "slow", redispatches: 1,
		},
		{
			name:   "copy fails: entitlement stays spent, no second copy",
			event:  func(f *simFleet, t1 *task) { f.answer("fast", t1, resultMsg{Err: "boom"}, 70) },
			finish: "slow", redispatches: 1,
		},
		{
			name:     "original fails: the survivor inherits the entitlement and is relieved",
			event:    func(f *simFleet, t1 *task) { f.answer("slow", t1, resultMsg{Err: "boom"}, 70) },
			entitled: true, finish: "fast", redispatches: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newSimFleet(t, SchedulerConfig{SpeculateFactor: 2, SpeculateMinAge: 10 * time.Millisecond})
			f.attach("slow", 1, 0)
			f.attach("fast", 1, 0)
			job := f.session("job")
			t1 := f.enqueue(job, 1, 0) // → slow
			t2 := f.enqueue(job, 2, 0) // → fast
			// fast answers in 10ms: the fleet EWMA is 10ms, the straggler
			// threshold 20ms.
			f.answer("fast", t2, resultMsg{U: 2}, 10)
			f.s.tick(at(15))
			if t1.speculated {
				t.Fatal("speculated below the straggler threshold")
			}
			f.s.tick(at(50))
			if !t1.speculated || t1.specWorker != f.slots["fast"].id {
				t.Fatalf("t1 not speculated onto fast: %+v", t1)
			}
			f.s.tick(at(60)) // one copy per task: nothing more happens
			wantIDs(t, "fast holds", f.heldBy("fast"), t1.id)
			want := map[string]string{"reason": "straggler", "from": "slow", "to": "fast", "age_seconds": "0.05"}
			if evs := redispatchEvents(job); len(evs) != 1 || !reflect.DeepEqual(evs[0], want) {
				t.Fatalf("redispatch events = %v, want one %v", evs, want)
			}

			tc.event(f, t1)

			r, got := outcome(t1)
			if got != tc.delivered || (got && (r.fallback || r.u != 1)) {
				t.Errorf("after the event: delivered %v (%+v), want %v", got, r, tc.delivered)
			}
			if t1.speculated == tc.entitled {
				t.Errorf("speculated = %v, want entitled = %v", t1.speculated, tc.entitled)
			}
			if p := f.pendingIDs(); len(p) != 0 {
				t.Errorf("a task with a live twin was requeued: pending %v", p)
			}
			if evs := redispatchEvents(job); len(evs) != 1 {
				t.Errorf("redispatch events = %v, want only the straggler's", evs)
			}

			f.s.tick(at(200))
			f.answer(tc.finish, t1, resultMsg{U: 1}, 300)
			if r, again := outcome(t1); again == tc.delivered || (again && (r.fallback || r.u != 1)) {
				t.Errorf("after the last copy answered: delivered %v (%+v), delivered before %v", again, r, tc.delivered)
			}
			st := f.s.stats()
			if st.Redispatches != tc.redispatches || st.RedispatchWins != tc.wins || st.Requeues != 0 {
				t.Errorf("stats = %+v, want %d redispatches, %d wins, 0 requeues", st, tc.redispatches, tc.wins)
			}
			var completed int64
			for _, w := range st.Workers {
				completed += w.Completed
			}
			if lostOne := len(st.Workers) == 1; !lostOne && completed != 2 {
				t.Errorf("fleet completed %d, want 2 (t2 and t1, each once)", completed)
			}
		})
	}
}

// TestStragglerScanSkipsUnrelievable: the oldest straggler's only free
// slot is on its own holder, so the scan must pass over it and relieve the
// younger one.
func TestStragglerScanSkipsUnrelievable(t *testing.T) {
	f := newSimFleet(t, SchedulerConfig{SpeculateFactor: 2, SpeculateMinAge: 10 * time.Millisecond})
	f.attach("a", 2, 0)
	f.attach("b", 2, 0)
	job := f.session("job")
	t1 := f.enqueue(job, 1, 0)             // → a, the oldest
	t2 := f.enqueue(job, 2, 5)             // → b
	t3 := f.enqueue(job, 3, 5)             // → a
	t4 := f.enqueue(job, 4, 5)             // → b
	f.answer("a", t3, resultMsg{U: 3}, 15) // history; a keeps one free slot
	wantIDs(t, "a holds", f.heldBy("a"), t1.id)
	wantIDs(t, "b holds", f.heldBy("b"), t2.id, t4.id)

	f.s.tick(at(100))

	if t1.speculated {
		t.Error("t1 was copied although only its own holder had room")
	}
	if !t2.speculated || t4.speculated {
		t.Errorf("speculated: t2 %v, t4 %v; want the older of b's two and not the other", t2.speculated, t4.speculated)
	}
	wantIDs(t, "a holds", f.heldBy("a"), t1.id, t2.id)
	if st := f.s.stats(); st.Redispatches != 1 || st.Workers[0].Redispatched != 1 {
		t.Errorf("stats = %+v, want one redispatch, received by a", st)
	}
}

// TestSessionCloseForgetsSpec: a cancelled job's spec is dropped on the
// workers but stays on record while the session lives (a later assignment
// must not re-ship it); Close erases the record, so a long-lived fleet
// does not grow by one entry per job served.
func TestSessionCloseForgetsSpec(t *testing.T) {
	f := newSimFleet(t, SchedulerConfig{DisableSpeculation: true})
	f.attach("a", 1, 0)
	f.attach("b", 1, 0)
	job := f.session("job")
	f.enqueue(job, 1, 0)
	f.enqueue(job, 2, 0)
	queued := f.enqueue(job, 3, 0)

	f.s.cancel(job, false) // what the job's context pushes when it is cancelled
	for name, l := range f.links {
		if l.count(isSpec) != 1 || l.count(isCancel) != 1 {
			t.Errorf("%s saw %d spec and %d cancel frames, want 1 and 1", name, l.count(isSpec), l.count(isCancel))
		}
		if !f.slots[name].specs["job"] {
			t.Errorf("%s forgot the spec while the session is open", name)
		}
	}
	if r, ok := outcome(queued); !ok || !r.fallback {
		t.Errorf("queued task of a cancelled job: %+v, %v; want handed back", r, ok)
	}

	job.Close()
	job.Close() // idempotent
	for name, w := range f.slots {
		if len(w.specs) != 0 {
			t.Errorf("%s still remembers %v after Close", name, w.specs)
		}
		if n := f.links[name].count(isCancel); n != 2 {
			t.Errorf("%s saw %d cancel frames, want 2", name, n)
		}
	}
	if f.s.enqueue(job, combin.NewCoalition(4), at(10)) != nil {
		t.Error("a closed session queued work")
	}
}

// TestNonFiniteResultFallsBackLocal attaches a worker whose evaluator
// answers NaN and then +Inf: JSON cannot carry either, so the worker
// replies with an error, and each must be treated as a failed evaluation
// — local fallback, counted failed in the worker's dispatch span, no
// latency sample — and never reach the oracle's cache.
func TestNonFiniteResultFallsBackLocal(t *testing.T) {
	c, addr := startCoordinatorWith(t, SchedulerConfig{DisableSpeculation: true})
	var calls atomic.Int64
	startWorker(t, addr, "badmath", 1, func(ProblemSpec) (Evaluator, error) {
		return Evaluator{Eval: func(combin.Coalition) float64 {
			if calls.Add(1)%2 == 1 {
				return math.NaN()
			}
			return math.Inf(1)
		}}, nil
	})
	waitWorkers(t, c, 1)

	trace := obs.NewTrace()
	oracle := utility.NewOracle(4, additive)
	var sess *Session
	oracle.WrapEval(func(inner utility.EvalFunc) utility.EvalFunc {
		sess = c.NewSessionWith(context.Background(), SessionConfig{
			Spec: ProblemSpec{ID: "nonfinite", N: 4}, Local: inner, LocalLimit: 1, Trace: trace,
		})
		return sess.Eval
	})
	for _, s := range []combin.Coalition{combin.NewCoalition(0, 1), combin.NewCoalition(2, 3)} {
		if got := oracle.U(s); got != additive(s) {
			t.Errorf("U(%s) = %v, want the local value %v", s, got, additive(s))
		}
	}
	for s, u := range oracle.Snapshot() {
		if math.IsNaN(u) || math.IsInf(u, 0) {
			t.Errorf("cache holds U(%s) = %v", s, u)
		}
	}
	if w := c.Workers()[0]; w.Completed != 0 || w.EWMAMillis != 0 {
		t.Errorf("non-finite answers counted as service: %+v", w)
	}
	sess.Close()
	var span *obs.Span
	for _, sp := range trace.Snapshot() {
		if sp.Name == "dispatch" && sp.Source == "badmath" {
			span = &sp
		}
	}
	if span == nil || span.Attrs["failed"] != "2" || span.Attrs["fresh"] != "0" || span.Attrs["tasks"] != "2" {
		t.Errorf("dispatch span = %+v, want tasks 2, failed 2, fresh 0", span)
	}
}

// TestWarmAnswerLeavesNoLatency: an answer the worker served from its own
// cache is delivered and counted warm in the dispatch span, but carries no
// training signal, so it leaves the worker's latency EWMA alone; the next
// trained answer sets it.
func TestWarmAnswerLeavesNoLatency(t *testing.T) {
	f := newSimFleet(t, SchedulerConfig{DisableSpeculation: true})
	f.attach("a", 1, 0)
	job := f.session("job")
	t1 := f.enqueue(job, 1, 0)
	f.answer("a", t1, resultMsg{U: 2, Warm: true}, 300)
	if r, ok := outcome(t1); !ok || r.u != 2 || r.fallback {
		t.Fatalf("warm answer delivered %+v, %v", r, ok)
	}
	if w := f.slots["a"]; w.ewma != 0 || w.done != 1 {
		t.Errorf("after a warm answer: ewma %v, done %d; want 0, 1", w.ewma, w.done)
	}
	t2 := f.enqueue(job, 2, 300)
	f.answer("a", t2, resultMsg{U: 3}, 400)
	if got := f.slots["a"].ewma; got != float64(100*time.Millisecond) {
		t.Errorf("after a trained answer: ewma %v, want 100ms", time.Duration(got))
	}
	job.Close()
	for _, sp := range job.cfg.Trace.Snapshot() {
		if sp.Name == "dispatch" && (sp.Attrs["warm"] != "1" || sp.Attrs["fresh"] != "1") {
			t.Errorf("dispatch span = %v, want warm 1, fresh 1", sp.Attrs)
		}
	}
}
