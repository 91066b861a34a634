package valserve

import (
	"context"
	"sync"
	"time"

	"fedshap"
	"fedshap/internal/obs"
)

// Job is one tracked valuation job. All mutation goes through its methods;
// external readers get immutable snapshots.
type Job struct {
	ctx    context.Context
	cancel context.CancelFunc

	// notify fans a transition event (with its snapshot) into the journal,
	// the event hub and the log (Manager.publish).
	notify func(event string, st *fedshap.JobStatus)

	// tel is the manager's instrument set and trace the job's span
	// timeline (GET /v1/jobs/{id}/trace); trace is nil for terminal jobs
	// restored from a previous life's journal. queueSpan is the open
	// queue-wait span between enqueue and pickup; enqueuedAt anchors the
	// queue-wait and end-to-end duration histograms to *this* life's
	// enqueue time, so a job requeued by crash recovery doesn't report its
	// pre-crash age as queue wait.
	tel        *telemetry
	trace      *obs.Trace
	queueSpan  *obs.SpanHandle
	enqueuedAt time.Time

	// emitMu serialises [mutate status + emit event] as one unit, so
	// journal records and hub events are appended in the same order the
	// transitions happened — without it, a stale non-terminal snapshot
	// could land after the terminal record and a replay would resurrect
	// a finished job. Lock order: emitMu before mu (readers take only mu).
	emitMu sync.Mutex

	mu            sync.Mutex
	status        fedshap.JobStatus
	userCancelled bool // Cancel() was called: terminal across restarts
}

// legalEdges is the job lifecycle. A requeue (restart recovery, graceful
// shutdown) is not an edge: it builds a *new* Job from resetForRequeue.
var legalEdges = map[fedshap.JobState]map[fedshap.JobState]bool{
	fedshap.JobQueued:  {fedshap.JobRunning: true, fedshap.JobCancelled: true},
	fedshap.JobRunning: {fedshap.JobDone: true, fedshap.JobFailed: true, fedshap.JobCancelled: true, fedshap.JobTimedOut: true},
}

// newJob builds a job around st, rooted at the daemon lifetime and wired to
// the manager's journal, hub and telemetry. A terminal status is a restored
// read-only job; any other is about to be queued, and gets a trace opening
// with the origin event (submit | requeue), an open queue span and this
// life's enqueue clock.
func (m *Manager) newJob(st fedshap.JobStatus, origin string, attrs ...string) *Job {
	//fedvallint:allow(ctxthread) job contexts are rooted at the daemon lifetime, not at any request
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{ctx: ctx, cancel: cancel, notify: m.publish, tel: m.tel, status: st}
	if st.State.Terminal() {
		cancel()
		return j
	}
	j.trace = obs.NewTrace()
	j.trace.Event(origin, "daemon", attrs...)
	j.queueSpan = j.trace.StartSpan("queue", "daemon")
	j.enqueuedAt = time.Now().UTC()
	return j
}

// snapshotLocked copies the status; the caller holds j.mu.
func (j *Job) snapshotLocked() *fedshap.JobStatus {
	st := j.status
	if j.status.StartedAt != nil {
		t := *j.status.StartedAt
		st.StartedAt = &t
	}
	if j.status.FinishedAt != nil {
		t := *j.status.FinishedAt
		st.FinishedAt = &t
	}
	return &st
}

// snapshot returns a copy safe to serialise concurrently with updates.
func (j *Job) snapshot() *fedshap.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked()
}

// transition moves the job along one edge of legalEdges as a single unit —
// mutate, snapshot, feed telemetry, emit — and reports whether it moved;
// any other (from, to) pair changes nothing and emits nothing. It is the
// only place a job changes state. The caller holds emitMu and not j.mu
// (notify re-enters no job locks).
func (j *Job) transition(to fedshap.JobState, errMsg string, report *fedshap.Report) bool {
	j.mu.Lock()
	if !legalEdges[j.status.State][to] {
		j.mu.Unlock()
		return false
	}
	now := time.Now().UTC()
	j.status.State = to
	if to == fedshap.JobRunning {
		j.status.StartedAt = &now
	} else {
		j.status.Error, j.status.Report, j.status.FinishedAt = errMsg, report, &now
	}
	st := j.snapshotLocked()
	j.mu.Unlock()
	j.queueSpan.End()
	if to == fedshap.JobRunning {
		j.tel.queueWait.Observe(now.Sub(j.enqueuedAt).Seconds())
	} else {
		j.observeTerminal(to, now)
	}
	j.notify(eventTypeForState(to), st)
	return true
}

// observeTerminal feeds a terminal transition into telemetry: the
// trailing trace event, the completion counter for the outcome, and the
// end-to-end duration histogram.
func (j *Job) observeTerminal(state fedshap.JobState, now time.Time) {
	j.trace.Event("report", "daemon", "state", string(state))
	j.tel.completed[state].Inc()
	j.tel.jobDuration.Observe(now.Sub(j.enqueuedAt).Seconds())
}

// markRunning moves queued → running, reporting false if the job was
// cancelled while waiting. A context cancelled before start (Manager.Close)
// terminates the job here, before any expensive problem construction.
func (j *Job) markRunning() bool {
	j.emitMu.Lock()
	defer j.emitMu.Unlock()
	if j.ctx.Err() != nil {
		j.transition(fedshap.JobCancelled, "cancelled before start", nil)
		return false
	}
	return j.transition(fedshap.JobRunning, "", nil)
}

// finish moves the running job to a terminal state.
func (j *Job) finish(state fedshap.JobState, errMsg string, report *fedshap.Report) {
	j.emitMu.Lock()
	defer j.emitMu.Unlock()
	j.transition(state, errMsg, report)
}

// cancelByUser records an explicit cancellation — the one kind of
// interruption that stays terminal across a daemon restart — and stops the
// job: a queued job terminates here, a running one when its runner next
// observes the cancelled context.
func (j *Job) cancelByUser() {
	j.emitMu.Lock()
	j.mu.Lock()
	queued := j.status.State == fedshap.JobQueued
	if !j.status.State.Terminal() {
		j.userCancelled = true
	}
	j.mu.Unlock()
	if queued {
		j.transition(fedshap.JobCancelled, "cancelled while queued", nil)
	}
	j.emitMu.Unlock()
	j.cancel()
}

// wasUserCancelled reports whether Cancel was explicitly requested.
func (j *Job) wasUserCancelled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.userCancelled
}

// setFresh records progress from the oracle's evaluation hook; the counter
// is monotone even under concurrent evaluation workers.
func (j *Job) setFresh(total int) {
	j.emitMu.Lock()
	defer j.emitMu.Unlock()
	j.mu.Lock()
	if total <= j.status.FreshEvals || j.status.State.Terminal() {
		j.mu.Unlock()
		return
	}
	delta := total - j.status.FreshEvals
	j.status.FreshEvals = total
	st := j.snapshotLocked()
	j.mu.Unlock()
	j.tel.evalsFresh.Add(int64(delta))
	j.notify(EventProgress, st)
}

// update sets run-time status fields that carry no event of their own (the
// problem name, the warmed count, the fleet size); the next snapshot shows
// them.
func (j *Job) update(set func(*fedshap.JobStatus)) {
	j.mu.Lock()
	set(&j.status)
	j.mu.Unlock()
}
