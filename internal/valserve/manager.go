package valserve

import (
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fedshap"
	"fedshap/internal/combin"
	"fedshap/internal/evalnet"
	"fedshap/internal/experiments"
	"fedshap/internal/obs"
	"fedshap/internal/resilience"
	"fedshap/internal/utility"
)

// Config tunes a Manager.
type Config struct {
	// Workers is the number of jobs executed concurrently (default 2).
	// Each job additionally parallelises its own coalition evaluations.
	Workers int
	// EvalWorkers bounds one job's concurrent coalition evaluations when
	// the request doesn't say (0 = GOMAXPROCS). An explicit value is a
	// hard cap: the evaluation pool is then never widened to an attached
	// worker fleet's capacity.
	EvalWorkers int
	// QueueCap bounds pending jobs; Submit fails when full (default 64).
	QueueCap int
	// AdmitWatermark, when in (0, 1), lowers the admission bound below
	// QueueCap: submissions are rejected with ErrQueueFull once the queue
	// reaches AdmitWatermark × QueueCap, keeping headroom for recovery
	// requeues and revaluation follow-ups. 0 (and 1) admit up to the full
	// capacity.
	AdmitWatermark float64
	// CacheDir roots the persistent utility store; "" disables
	// persistence.
	CacheDir string
	// JournalPath names the durable job journal (append-only JSONL; see
	// Journal). On startup the journal is replayed: completed jobs
	// reload their reports, interrupted jobs are requeued and start warm
	// from the utility store. "" disables durability — jobs and reports
	// are lost on restart. The journal must not live inside CacheDir
	// with a .jsonl extension, or store compaction would rewrite it.
	JournalPath string
	// JobTTL expires terminal jobs this long after they finish: expired
	// jobs disappear from the API and are pruned from the journal on the
	// next compaction. 0 keeps finished jobs forever.
	JobTTL time.Duration
	// GCInterval is how often the TTL sweep runs (default 1 minute;
	// only meaningful with JobTTL > 0).
	GCInterval time.Duration
	// CompactEvery, when > 0, runs a background compaction sweep on that
	// interval: the persistent store's fingerprint files and the job
	// journal are rewritten to one record per coalition/job, so a
	// long-lived or crash-prone daemon stops accumulating duplicate
	// records unboundedly. Off by default (0): compaction then runs only
	// at startup replay and shutdown. Periodic compaction assumes this
	// daemon is the only process appending to the cache directory.
	CompactEvery time.Duration
	// SSEHeartbeat is the idle-stream heartbeat interval for
	// GET /v1/jobs/{id}/events: a ": ping" SSE comment is written whenever
	// the stream has been quiet this long, so aggressive proxies don't
	// kill idle connections. 0 selects the 15s default; < 0 disables
	// heartbeats.
	SSEHeartbeat time.Duration
	// BuildProblem overrides problem construction. Tests inject synthetic
	// games; nil uses the experiments constructors (and strict dataset
	// validation).
	BuildProblem func(req fedshap.JobRequest) (*experiments.Problem, error)
	// Coordinator, when set, fans each job's coalition evaluations out
	// across its remote worker fleet (cmd/fedvalworker daemons). Jobs fall
	// back to in-process evaluation while no workers are attached.
	Coordinator *evalnet.Coordinator
	// Fault, when set, is installed as the journal's and store's fault
	// hook — the injectable seam unit tests and the chaos harness use to
	// fail persistence writes on demand (see internal/resilience.Hook and
	// the FEDVALD_FAULT_FILE switch in cmd/fedvald).
	Fault *resilience.Hook
	// DegradedProbeEvery is how often the manager probes persistence:
	// while degraded, each probe rewrites the journal from live state and
	// flushes the store's pending-write buffer, and the entering and
	// leaving log lines land on the probe that observes the edge
	// (default 1s).
	DegradedProbeEvery time.Duration
	// Logger receives structured job-lifecycle logs (submissions,
	// transitions, terminal outcomes) with job-ID correlation; nil
	// discards them.
	Logger *slog.Logger
}

// Manager queues, executes, observes and cancels valuation jobs over a
// bounded worker pool, a shared persistent utility store, and (when
// configured) a durable job journal that survives daemon restarts.
type Manager struct {
	cfg     Config
	store   *utility.Store
	journal *Journal
	hub     *eventHub
	tel     *telemetry
	logger  *slog.Logger
	queue   chan *Job
	wg      sync.WaitGroup

	// stop and bg are the one stop path for background work (see every):
	// Close closes stop and waits on bg.
	stop chan struct{}
	bg   sync.WaitGroup

	// compactions / compactDropped feed the /metrics cache section.
	compactions    atomic.Int64
	compactDropped atomic.Int64

	// drainMu guards the queue-drain EWMA behind Retry-After estimation:
	// the smoothed interval between job dequeues, observed by the worker
	// pool.
	drainMu     sync.Mutex
	drainEWMA   time.Duration
	lastDequeue time.Time

	mu     sync.Mutex
	jobs   map[string]*Job
	seq    int
	closed bool
}

// ErrQueueFull is returned by Submit when the pending queue is at capacity.
var ErrQueueFull = errors.New("valserve: job queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("valserve: manager closed")

// ErrNotFound is returned for unknown job IDs.
var ErrNotFound = errors.New("valserve: job not found")

// ErrNotRevaluable is returned by Revalue for jobs without a completed
// report — only done jobs define a base problem to revalue against.
var ErrNotRevaluable = errors.New("valserve: job is not revaluable")

// NewManager opens the persistent store and the job journal (as
// configured), replays the journal — restoring completed jobs and
// requeuing interrupted ones — and starts the worker pool and the TTL
// sweep.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if err := checkJournalPlacement(cfg); err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:    cfg,
		hub:    newEventHub(),
		jobs:   make(map[string]*Job),
		logger: cfg.Logger,
		stop:   make(chan struct{}),
	}
	if m.logger == nil {
		m.logger = obs.NopLogger()
	}
	// Sampled series project Manager.sample at scrape time, so
	// registering before the store/journal/queue exist is safe.
	m.tel = newTelemetry(m)
	if cfg.CacheDir != "" {
		st, err := utility.OpenStore(cfg.CacheDir)
		if err != nil {
			return nil, err
		}
		st.Fault = cfg.Fault
		m.store = st
	}
	var pending []*Job
	if cfg.JournalPath != "" {
		jl, err := OpenJournal(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		jl.Fault = cfg.Fault
		m.journal = jl
		if pending, err = m.replay(); err != nil {
			return nil, err
		}
	}
	// The queue is sized after replay so every job the previous process
	// life left unfinished is guaranteed a slot — recovery must never
	// fail jobs that survived a crash just because QueueCap is smaller
	// than the backlog.
	queueCap := cfg.QueueCap
	if len(pending) > queueCap {
		queueCap = len(pending)
	}
	m.queue = make(chan *Job, queueCap)
	// Requeue the recovered jobs in their original submission order,
	// ahead of any new submissions. They run against the warmed utility
	// store, so already-evaluated coalitions cost nothing.
	for _, j := range pending {
		m.queue <- j
	}
	for w := 0; w < cfg.Workers; w++ {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for j := range m.queue {
				m.noteDequeue()
				m.runJob(j)
			}
		}()
	}
	if cfg.JobTTL > 0 {
		m.every(cfg.GCInterval, time.Minute, func() { m.SweepExpired() })
	}
	if cfg.CompactEvery > 0 {
		// The long-lived-daemon counterpart of the shutdown compaction, so
		// a crashed or never-restarted process doesn't accumulate duplicate
		// records without bound. Write errors surface via Close.
		m.every(cfg.CompactEvery, 0, func() { _, _ = m.CompactNow() })
	}
	if m.journal != nil || m.store != nil {
		was := false // the state the previous probe left; only the probe touches it
		m.every(cfg.DegradedProbeEvery, time.Second, func() { was = m.probe(was) })
	}
	return m, nil
}

// every runs fn on the interval (fallback when the interval is unset)
// until Close.
func (m *Manager) every(interval, fallback time.Duration, fn func()) {
	if interval <= 0 {
		interval = fallback
	}
	m.bg.Add(1)
	go func() {
		defer m.bg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				fn()
			}
		}
	}()
}

// Degraded reports memory-only operation: utilities wait in the store's
// pending buffer, or the journal latched a write error that no rewrite
// has healed since. It is derived from those two sources on every call,
// and neither read takes a lock. Serving jobs beats preserving them:
// valuation keeps running and results stay available over the API while
// the probe retries persistence. Exposed on /healthz and as the
// fedvald_degraded gauge.
func (m *Manager) Degraded() bool {
	return m.pendingWrites() > 0 || m.journal.failure() != nil
}

// pendingWrites is the store's pending-buffer length, 0 without a store.
func (m *Manager) pendingWrites() int {
	if m.store == nil {
		return 0
	}
	return m.store.PendingWrites()
}

// probe is one tick of the persistence probe: while Degraded holds it
// tries to restore, and it logs each edge of Degraded it observes — at
// most one probe interval after the write that caused it. was is the
// state the previous tick left; the result is the state this one leaves.
func (m *Manager) probe(was bool) bool {
	if m.Degraded() {
		if !was {
			attrs := []any{"pending_writes", m.pendingWrites()}
			if err := m.journal.failure(); err != nil {
				attrs = append(attrs, "journal_error", err.Error())
			}
			m.logger.Error("persistence failed; entering degraded (memory-only) mode", attrs...)
		}
		was = true
		_ = m.tryRestore() // a failure leaves its source set, and the next tick retries
	}
	if was && !m.Degraded() {
		m.logger.Info("persistence restored; leaving degraded mode")
		return false
	}
	return was
}

// tryRestore is one recovery attempt: rewrite the journal from live job
// state — reconstructing every record lost while the disk was failing,
// including transitions that happened memory-only, and clearing its
// latch — then flush the store's pending buffer. A failure leaves its
// source set, so Degraded still holds and the next probe retries.
func (m *Manager) tryRestore() error {
	if m.journal != nil {
		if err := m.journal.CompactWith(m.snapshotsOldestFirst); err != nil {
			return err
		}
	}
	if m.store != nil {
		_, err := m.store.FlushPending()
		return err
	}
	return nil
}

// checkJournalPlacement rejects a journal that store compaction would
// mistake for a fingerprint cache file and rewrite as utilities. Paths
// are resolved to absolute form first, so a relative cache dir and an
// absolute journal path naming the same directory (or vice versa) are
// still caught.
func checkJournalPlacement(cfg Config) error {
	if cfg.JournalPath == "" || cfg.CacheDir == "" || !strings.HasSuffix(cfg.JournalPath, ".jsonl") {
		return nil
	}
	journalDir := filepath.Dir(cfg.JournalPath)
	cacheDir := filepath.Clean(cfg.CacheDir)
	if abs, err := filepath.Abs(journalDir); err == nil {
		journalDir = abs
	}
	if abs, err := filepath.Abs(cacheDir); err == nil {
		cacheDir = abs
	}
	if journalDir == cacheDir {
		return fmt.Errorf("valserve: journal %q must not be a .jsonl file inside the cache directory %q (store compaction would rewrite it)",
			cfg.JournalPath, cfg.CacheDir)
	}
	return nil
}

// publish is every job's notify: it fans one transition event into the
// journal, the event hub and the log.
func (m *Manager) publish(event string, st *fedshap.JobStatus) {
	// A latched journal skips the record, and the rewrite that clears
	// the latch re-journals this job from live state (see Journal.Append).
	m.journal.Append(event, st)
	m.hub.publish(st.ID, Event{Type: event, Status: st})
	attrs := []any{"job", st.ID, "state", string(st.State), "fresh", st.FreshEvals}
	if st.Error != "" {
		attrs = append(attrs, "error", st.Error)
	}
	if event == EventProgress {
		m.logger.Debug("job "+event, attrs...)
	} else {
		m.logger.Info("job "+event, attrs...)
	}
}

// replay rebuilds the job table from the journal: terminal jobs are
// restored read-only (reports included), interrupted jobs are reset to
// queued and returned for requeuing. The ID counter advances past every
// replayed ordinal, and the journal is compacted to one snapshot per
// surviving job, dropping the previous life's event history.
func (m *Manager) replay() ([]*Job, error) {
	entries, err := m.journal.Replay()
	if err != nil {
		return nil, err
	}
	var pending []*Job
	for _, st := range entries {
		// An interrupted job gets a fresh trace for its fresh run, and its
		// queue-wait clock restarts here rather than at the original
		// submission, so its pre-crash age doesn't pollute the histograms.
		interrupted := !st.State.Terminal()
		if interrupted {
			st = resetForRequeue(st)
		}
		j := m.newJob(*st, "requeue", "reason", "restart-recovery")
		if interrupted {
			pending = append(pending, j)
		}
		m.jobs[j.status.ID] = j
		if n := idOrdinal(j.status.ID); n > m.seq {
			m.seq = n
		}
	}
	if err := m.journal.Compact(m.snapshotsOldestFirst()); err != nil {
		// A failing disk must not block startup: the journal already
		// replayed into memory, so serve degraded and let the background probe
		// restore persistence (the failed rewrite latched the journal, which
		// is what Degraded reads).
		m.logger.Warn("startup journal compaction failed; continuing degraded",
			"error", err.Error())
	}
	return pending, nil
}

// resetForRequeue returns a copy of an interrupted job's status ready for
// a fresh run: back to queued, progress and per-run fields cleared, the
// original submission time and identity kept.
func resetForRequeue(st *fedshap.JobStatus) *fedshap.JobStatus {
	reset := *st
	reset.State = fedshap.JobQueued
	reset.StartedAt, reset.FinishedAt = nil, nil
	reset.FreshEvals, reset.WarmedCoalitions, reset.RemoteWorkers = 0, 0, 0
	reset.Problem, reset.Error = "", ""
	reset.Report = nil
	return &reset
}

// idOrdinal parses the submission ordinal out of a job ID ("j0042-…"),
// or 0 for foreign IDs.
func idOrdinal(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "j%d-", &n); err == nil {
		return n
	}
	return 0
}

// snapshotsOldestFirst returns every job's snapshot in submission order —
// the order Compact preserves so a replay requeues jobs as originally
// submitted. Call without holding m.mu.
func (m *Manager) snapshotsOldestFirst() []*fedshap.JobStatus {
	out := m.List()
	slices.Reverse(out)
	return out
}

// Store exposes the persistent utility store (nil when persistence is
// disabled), for inspection and tests.
func (m *Manager) Store() *utility.Store { return m.store }

// Journal exposes the durable job journal (nil when durability is
// disabled), for inspection and tests.
func (m *Manager) Journal() *Journal { return m.journal }

// Workers lists the attached remote evaluation workers; empty when no
// coordinator is configured or no worker has dialled in.
func (m *Manager) Workers() []fedshap.WorkerInfo {
	if m.cfg.Coordinator == nil {
		return []fedshap.WorkerInfo{}
	}
	return m.cfg.Coordinator.Workers()
}

// Revalue submits a delta-revaluation follow-up to a completed job: the
// same valuation problem with the listed clients' dataset versions bumped
// by one. Before the new job is enqueued, every persisted utility of the
// old fingerprint whose coalition contains *none* of the changed clients
// is migrated to the new fingerprint — those coalitions' training sets are
// untouched by the change, so their utilities are still exact. The new job
// then warm-starts from them and spends fresh evaluations only on
// coalitions that actually include a changed client.
func (m *Manager) Revalue(id string, changed []int) (*fedshap.JobStatus, error) {
	j, err := m.job(id)
	if err != nil {
		return nil, err
	}
	st := j.snapshot()
	if st.State != fedshap.JobDone {
		return nil, fmt.Errorf("%w: job %s is %s", ErrNotRevaluable, id, st.State)
	}
	req := st.Request
	if len(changed) == 0 {
		return nil, errors.New("revalue: changed client set is empty")
	}
	var changedSet combin.Coalition
	for _, c := range changed {
		if c < 0 || c >= req.N {
			return nil, fmt.Errorf("revalue: client %d out of range [0,%d)", c, req.N)
		}
		changedSet = changedSet.With(c)
	}
	vers := make([]int, req.N)
	copy(vers, req.Versions)
	for _, c := range changedSet.Members() {
		vers[c]++
	}
	req.Versions = vers
	Normalize(&req)
	if oldFp, newFp := st.Fingerprint, Fingerprint(req); m.store != nil && oldFp != newFp {
		migrated, err := migrateDisjoint(m.store, oldFp, newFp, changedSet)
		if err != nil {
			// Migration is a warm-start optimisation: losing it costs
			// retraining, not correctness, so it never blocks the job.
			m.logger.Warn("revalue: store migration failed",
				"job", id, "error", err.Error())
		}
		m.logger.Info("revalue: migrated store utilities",
			"job", id, "migrated", migrated, "from", oldFp, "to", newFp)
	}
	nst, err := m.submit(req, id)
	if err != nil {
		return nil, err
	}
	m.tel.revaluations.Inc()
	return nst, nil
}

// migrateDisjoint copies every persisted utility of oldFp whose coalition
// is disjoint from the changed client set to newFp, skipping coalitions
// the new fingerprint already holds. Returns the number migrated.
func migrateDisjoint(store *utility.Store, oldFp, newFp string, changed combin.Coalition) (int, error) {
	old, err := store.Load(oldFp)
	if err != nil || len(old) == 0 {
		return 0, err
	}
	existing, err := store.Load(newFp)
	if err != nil {
		return 0, err
	}
	moved := 0
	for s, u := range old {
		if _, dup := existing[s]; dup || !s.Intersect(changed).IsEmpty() {
			continue
		}
		if err := store.Append(newFp, s, u); err != nil {
			return moved, err
		}
		moved++
	}
	return moved, nil
}

// job looks a job up by ID.
func (m *Manager) job(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.jobs[id]; ok {
		return j, nil
	}
	return nil, ErrNotFound
}

// Get returns the status of one job.
func (m *Manager) Get(id string) (*fedshap.JobStatus, error) {
	j, err := m.job(id)
	if err != nil {
		return nil, err
	}
	return j.snapshot(), nil
}

// List returns every job, newest submission first.
func (m *Manager) List() []*fedshap.JobStatus {
	m.mu.Lock()
	out := make([]*fedshap.JobStatus, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j.snapshot())
	}
	m.mu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		if !out[a].SubmittedAt.Equal(out[b].SubmittedAt) {
			return out[a].SubmittedAt.After(out[b].SubmittedAt)
		}
		return out[a].ID > out[b].ID
	})
	return out
}

// Registry exposes the daemon's metric registry, for the HTTP handler's
// Prometheus exposition and the debug listener.
func (m *Manager) Registry() *obs.Registry { return m.tel.reg }

// Trace returns a job's span timeline: daemon-side lifecycle phases plus
// the per-worker dispatch spans and redispatch events merged in by the
// coordinator. Terminal jobs restored from a previous life's journal
// have no recorded spans.
func (m *Manager) Trace(id string) (*fedshap.JobTrace, error) {
	j, err := m.job(id)
	if err != nil {
		return nil, err
	}
	st := j.snapshot()
	spans := j.trace.Snapshot()
	out := &fedshap.JobTrace{JobID: id, State: st.State, Spans: make([]fedshap.TraceSpan, 0, len(spans))}
	for _, sp := range spans {
		ts := fedshap.TraceSpan{Name: sp.Name, Source: sp.Source, Start: sp.Start, Attrs: sp.Attrs}
		if !sp.End.IsZero() {
			end := sp.End
			ts.End = &end
			ts.DurationSeconds = end.Sub(sp.Start).Seconds()
		}
		out.Spans = append(out.Spans, ts)
	}
	return out, nil
}

// ListSince pages through jobs. With since == "" it returns the newest
// limit jobs (newest first), exactly like List head-limited. A non-empty
// since — a job ID, or an RFC 3339 timestamp — flips the order to oldest
// first and returns only jobs submitted strictly after that point, which
// is the shape a poller wants: "everything new since the last job I
// saw". An unknown job ID returns ErrNotFound. limit <= 0 means no
// limit.
func (m *Manager) ListSince(since string, limit int) ([]*fedshap.JobStatus, error) {
	all := m.List()
	if since == "" {
		if limit > 0 && len(all) > limit {
			all = all[:limit]
		}
		return all, nil
	}
	var cutoff time.Time
	var cutID string
	if t, err := time.Parse(time.RFC3339Nano, since); err == nil {
		cutoff = t
	} else {
		j, err := m.job(since)
		if err != nil {
			return nil, err
		}
		st := j.snapshot()
		cutoff, cutID = st.SubmittedAt, st.ID
	}
	// Oldest first, strictly after the (SubmittedAt, ID) cutoff — the
	// same composite order List sorts by, so pagination by last-seen job
	// ID never skips or repeats a job even when submissions share a
	// timestamp.
	out := make([]*fedshap.JobStatus, 0, len(all))
	for i := len(all) - 1; i >= 0; i-- {
		st := all[i]
		after := st.SubmittedAt.After(cutoff) ||
			(cutID != "" && st.SubmittedAt.Equal(cutoff) && idAfter(st.ID, cutID))
		if !after {
			continue
		}
		out = append(out, st)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out, nil
}

// idAfter orders job IDs by submission ordinal, falling back to string
// order for foreign IDs.
func idAfter(a, b string) bool {
	na, nb := idOrdinal(a), idOrdinal(b)
	if na > 0 && nb > 0 && na != nb {
		return na > nb
	}
	return a > b
}

// Watch subscribes to a job's event stream. The channel delivers an
// initial snapshot event immediately, then every subsequent transition
// and progress checkpoint, and is closed after a terminal event. A slow
// reader loses intermediate progress events, never the final state. The
// returned cancel releases the subscription; it is safe to call after the
// channel closed.
func (m *Manager) Watch(id string) (<-chan Event, func(), error) {
	j, err := m.job(id)
	if err != nil {
		return nil, nil, err
	}
	ch, cancel := m.hub.watch(id, j.snapshot)
	return ch, cancel, nil
}

// Cancel stops a job: a queued job terminates immediately, a running job
// stops before its next fresh coalition evaluation (already-cached
// utilities may still be read). Cancelling a terminal job is a no-op.
func (m *Manager) Cancel(id string) (*fedshap.JobStatus, error) {
	j, err := m.job(id)
	if err != nil {
		return nil, err
	}
	j.cancelByUser()
	return j.snapshot(), nil
}

// SweepExpired drops terminal jobs whose FinishedAt is older than the
// configured JobTTL, pruning them from the API and — via journal
// compaction — from disk, and returns how many expired. The manager runs
// it automatically every GCInterval; it is exported for embedders and
// tests that want a deterministic sweep. With JobTTL <= 0 it is a no-op.
func (m *Manager) SweepExpired() int {
	if m.cfg.JobTTL <= 0 {
		return 0
	}
	cutoff := time.Now().UTC().Add(-m.cfg.JobTTL)
	m.mu.Lock()
	expired := 0
	for id, j := range m.jobs {
		st := j.snapshot()
		if st.State.Terminal() && st.FinishedAt != nil && st.FinishedAt.Before(cutoff) {
			delete(m.jobs, id)
			expired++
		}
	}
	m.mu.Unlock()
	if expired > 0 && m.journal != nil {
		// Jobs are live during a sweep: collect the snapshots inside the
		// journal's critical section so a terminal record appended
		// mid-compaction cannot be lost. CompactWith also keeps a failure
		// for Close.
		if err := m.journal.CompactWith(m.snapshotsOldestFirst); err != nil {
			m.logger.Warn("ttl sweep: journal compaction failed", "error", err)
		}
	}
	return expired
}

// CompactNow runs one compaction sweep over the persistent store and the
// job journal, returning the number of duplicate records dropped. The
// background loop (Config.CompactEvery) calls it on its interval; it is
// exported for embedders and tests that want a deterministic sweep. Safe
// while jobs are running — in-process appends are serialised against the
// rewrite — but it assumes no other process appends to the cache
// directory concurrently (see utility.Store.Compact).
func (m *Manager) CompactNow() (dropped int, err error) {
	var errs []error
	if m.store != nil {
		_, d, cerr := m.store.CompactAll()
		dropped += d
		errs = append(errs, cerr)
	}
	if m.journal != nil {
		errs = append(errs, m.journal.CompactWith(m.snapshotsOldestFirst))
	}
	m.compactions.Add(1)
	m.compactDropped.Add(int64(dropped))
	return dropped, errors.Join(errs...)
}

// Close cancels every live job, drains the workers, compacts the
// persistent store and the journal, and closes both. Jobs that were
// still queued or running are recorded in the journal as *queued*, not
// cancelled: a graceful shutdown (SIGTERM) preserves in-flight work, and
// the next start requeues it warm from the utility store. Only explicit
// user cancellation is terminal across restarts.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	close(m.queue)
	m.mu.Unlock()

	// Remember which jobs the shutdown itself interrupts, before the
	// cancellation below marks them cancelled. Jobs the user already
	// asked to cancel are excluded — user cancellation stays terminal
	// even when the cancel and the shutdown race.
	interrupted := make(map[string]*Job)
	for _, j := range jobs {
		if st := j.snapshot(); !st.State.Terminal() && !j.wasUserCancelled() {
			interrupted[st.ID] = j
		}
	}
	close(m.stop)
	m.bg.Wait()
	for _, j := range jobs {
		j.cancel()
	}
	m.wg.Wait()

	var errs []error
	if m.journal != nil {
		snaps := m.snapshotsOldestFirst()
		for i, st := range snaps {
			// A job both interrupted by shutdown and finished cancelled
			// was killed by Close, not the user: journal it as queued so
			// the next start resumes it. A job that still completed
			// (done/failed) between the snapshot and the cancel keeps
			// its real outcome, and a user cancel that landed during
			// shutdown stays cancelled.
			j := interrupted[st.ID]
			if j != nil && st.State == fedshap.JobCancelled && !j.wasUserCancelled() {
				snaps[i] = resetForRequeue(st)
			}
		}
		errs = append(errs, m.journal.Compact(snaps))
		errs = append(errs, m.journal.Close())
	}
	if m.store != nil {
		_, _, cerr := m.store.CompactAll()
		errs = append(errs, cerr, m.store.Close())
	}
	return errors.Join(errs...)
}
