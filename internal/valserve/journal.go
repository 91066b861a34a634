package valserve

import (
	"cmp"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"fedshap"
	"fedshap/internal/resilience"
	"fedshap/internal/utility"
)

// Event type names, as streamed over GET /v1/jobs/{id}/events and
// recorded in the job journal. Each event carries a full JobStatus
// snapshot, so consumers (and crash replay) never need to reassemble
// state from deltas.
const (
	// EventSubmitted: the job entered the queue.
	EventSubmitted = "submitted"
	// EventRunning: a worker picked the job up.
	EventRunning = "running"
	// EventProgress: a fresh coalition evaluation completed (FreshEvals
	// advanced toward Budget).
	EventProgress = "progress"
	// EventDone / EventFailed / EventCancelled / EventTimedOut: terminal
	// transitions. The done snapshot includes the final Report.
	EventDone      = "done"
	EventFailed    = "failed"
	EventCancelled = "cancelled"
	EventTimedOut  = "timed_out"
	// EventValues: an interim anytime snapshot (Event.Values) from a job
	// running with Confidence set. Streamed over SSE, never journaled.
	EventValues = "values"
)

// eventTypeForState maps a lifecycle state to the event type describing
// it as a snapshot — the type watchers receive for the initial status
// event and the type compaction records live jobs under.
func eventTypeForState(s fedshap.JobState) string {
	switch s {
	case fedshap.JobQueued:
		return EventSubmitted
	case fedshap.JobRunning, fedshap.JobDone, fedshap.JobFailed, fedshap.JobCancelled, fedshap.JobTimedOut:
		return string(s) // entering a state is the event of that name
	}
	return EventProgress
}

// journalRecord is the JSONL schema of one journal line: the event type,
// the job it belongs to, the wall-clock write time, and a full status
// snapshot (request, fingerprint, budget, progress, and — for done jobs —
// the report). Replay is last-record-wins per job ID, which makes record
// ordering across concurrent writers irrelevant.
type journalRecord struct {
	Event  string             `json:"event"`
	ID     string             `json:"id"`
	At     time.Time          `json:"at"`
	Status *fedshap.JobStatus `json:"status"`
}

// Journal is the durable job log behind a Manager: an append-only JSONL
// file recording every submission, state transition, progress checkpoint
// and final report. Utilities live in the utility.Store; the journal is
// what turns them back into *jobs* after a restart — completed jobs
// reload their reports verbatim, interrupted jobs are requeued and start
// warm from the store, and cancelled or failed jobs stay terminal.
//
// Appends are best-effort on the job hot path: write errors are
// remembered and surfaced by Close rather than failing a valuation.
// Compact rewrites the file to one snapshot per surviving job (atomic
// temp-file rename), pruning the event history a long-lived daemon
// accumulates.
type Journal struct {
	path string
	file *utility.AppendFile

	// ProgressEvery throttles progress checkpoints per job: at most one
	// progress record per interval hits the disk (default 200ms).
	// Lifecycle transitions are never throttled. Replay does not depend
	// on progress records — they exist for post-mortem observability.
	ProgressEvery time.Duration

	// Fault, when set, is consulted before every append and rewrite —
	// the injectable seam tests and the chaos harness use to simulate a
	// full or failing disk. Set it before the journal is shared.
	Fault *resilience.Hook

	mu           sync.Mutex
	lastProgress map[string]time.Time
	// err latches the first write error since the last successful
	// rewrite: Close reports it, and while it is set the valuation service
	// runs degraded. It is stored under mu and read without it, so
	// deriving the degraded state never waits behind a rewrite.
	err atomic.Pointer[error]
}

// OpenJournal opens (creating parent directories if needed) the journal
// at path. The file itself is created on the first append.
func OpenJournal(path string) (*Journal, error) {
	if path == "" {
		return nil, errors.New("valserve: journal path is empty")
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	return &Journal{
		path:          path,
		file:          utility.NewAppendFile(path),
		ProgressEvery: 200 * time.Millisecond,
		lastProgress:  make(map[string]time.Time),
	}, nil
}

// Path returns the journal's file path.
func (jl *Journal) Path() string { return jl.path }

// Size returns the journal's current size on disk in bytes (0 when the
// file doesn't exist yet) — the /metrics journal gauge an operator watches
// to decide whether compaction keeps up with event churn.
func (jl *Journal) Size() int64 {
	fi, err := os.Stat(jl.path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// Append records one event. Progress events are throttled per job
// (ProgressEvery); everything else is written unless a write error is
// latched. Errors are latched and surfaced by Close — a failing disk must
// not fail jobs. While the latch holds, Append writes nothing: only a
// rewrite clears the latch, and a rewrite rebuilds every live job's
// record, so each skipped event is restored by the same rewrite that
// heals the journal.
//
// The write happens under the journal mutex, fully serialised against
// Compact: an append can never slip between Compact's handle retirement
// and its atomic rename, where the record would land in the unlinked
// pre-compaction file and vanish.
func (jl *Journal) Append(event string, st *fedshap.JobStatus) {
	if jl == nil || st == nil {
		return
	}
	now := time.Now().UTC()
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if event == EventProgress && jl.ProgressEvery > 0 {
		if last, ok := jl.lastProgress[st.ID]; ok && now.Sub(last) < jl.ProgressEvery {
			return
		}
		jl.lastProgress[st.ID] = now
	}
	if st.State.Terminal() {
		delete(jl.lastProgress, st.ID)
	}
	if jl.failure() != nil {
		return
	}
	err := jl.Fault.Check("journal.append")
	if err == nil {
		err = jl.file.Append(journalRecord{Event: event, ID: st.ID, At: now, Status: st})
	}
	if err != nil {
		jl.failLocked(err)
	}
}

// failLocked latches the journal's first write error. Call with jl.mu
// held.
func (jl *Journal) failLocked(err error) { jl.err.CompareAndSwap(nil, &err) }

// failure returns the latched write error: nil while every record since
// the last rewrite reached the disk, and for a nil journal. It takes no
// lock.
func (jl *Journal) failure() error {
	if jl == nil {
		return nil
	}
	if p := jl.err.Load(); p != nil {
		return *p
	}
	return nil
}

// Replay reads the whole journal and returns the last recorded status of
// every job, in first-appearance (submission) order. Malformed lines —
// torn tail writes from a crash — are skipped, as are records without a
// status snapshot.
func (jl *Journal) Replay() ([]*fedshap.JobStatus, error) {
	var order []string
	last := make(map[string]*fedshap.JobStatus)
	err := utility.ScanJSONL(jl.path, func(line []byte) {
		var rec journalRecord
		if json.Unmarshal(line, &rec) != nil || rec.Status == nil || rec.Status.ID == "" {
			return
		}
		if _, seen := last[rec.Status.ID]; !seen {
			order = append(order, rec.Status.ID)
		}
		last[rec.Status.ID] = rec.Status
	})
	if err != nil {
		return nil, err
	}
	out := make([]*fedshap.JobStatus, 0, len(order))
	for _, id := range order {
		out = append(out, last[id])
	}
	return out, nil
}

// Compact atomically rewrites the journal to exactly one snapshot record
// per job in live, dropping the event history and every job not listed
// (this is how TTL-expired jobs leave the journal). Like
// utility.Store.Compact, it assumes no other *process* is appending
// concurrently. Within this process, callers that compact while jobs are
// running must use CompactWith so the snapshots are collected under the
// journal mutex — Compact with a pre-collected list is only safe when no
// appender is live (startup, post-drain shutdown, tests).
func (jl *Journal) Compact(live []*fedshap.JobStatus) error {
	return jl.CompactWith(func() []*fedshap.JobStatus { return live })
}

// CompactWith is Compact with the live set collected *inside* the
// journal's critical section: appends are blocked while collect runs, so
// no event — in particular no terminal record, which would never be
// superseded by a later event — can land between the collection and the
// rewrite and be erased by a stale snapshot. Transitions always mutate
// job status before journaling it, so a blocked appender's state is
// already visible to collect and its record, appended after the rewrite,
// agrees with the compacted snapshot.
//
// collect must not append to or close this journal (deadlock); taking
// manager/job locks inside it is fine.
func (jl *Journal) CompactWith(collect func() []*fedshap.JobStatus) error {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return jl.rewriteLocked(collect())
}

// rewriteLocked replaces the journal with one snapshot per live job.
// Success clears the latched write error: the rewrite re-journals every
// live job from scratch, so any record lost while the disk was failing
// is reconstructed, and a stale error must not survive to Close or keep
// the service degraded. Call with jl.mu held.
func (jl *Journal) rewriteLocked(live []*fedshap.JobStatus) error {
	if err := jl.Fault.Check("journal.rewrite"); err != nil {
		jl.failLocked(err)
		return err
	}
	now := time.Now().UTC()
	rows := make([][]byte, 0, len(live))
	for _, st := range live {
		line, err := json.Marshal(journalRecord{
			Event:  eventTypeForState(st.State),
			ID:     st.ID,
			At:     now,
			Status: st,
		})
		if err != nil {
			continue
		}
		rows = append(rows, line)
	}
	// Retire the append handle before swapping the file underneath it;
	// the next Append reopens against the compacted journal.
	jl.file.Close()
	if err := utility.ReplaceJSONL(jl.path, rows); err != nil {
		jl.failLocked(err)
		return err
	}
	jl.err.Store(nil)
	return nil
}

// Close retires the append handle and returns the first write error
// encountered during the journal's lifetime.
func (jl *Journal) Close() error {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return cmp.Or(jl.failure(), jl.file.Close())
}
