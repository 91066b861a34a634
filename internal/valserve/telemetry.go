package valserve

import (
	"strconv"
	"time"

	"fedshap"
	"fedshap/internal/obs"
)

// wantedWorkersTarget is the drain window behind the
// fedvald_fleet_wanted_workers autoscaling gauge: the fleet size the gauge
// reports is the one that clears the coordinator's current evaluation
// backlog (queue depth × EWMA latency) within this window. See
// evalnet.Coordinator.WantedWorkers and the OPERATIONS.md monitoring
// runbook.
const wantedWorkersTarget = 30 * time.Second

// telemetry owns the daemon's Prometheus registry and the instruments the
// manager updates on its hot paths. Instruments are atomics (see
// internal/obs); everything sampled from manager, store or coordinator
// state is a scrape-time projection of one Manager.sample, so steady-state
// job execution pays only for counter increments and histogram observes.
type telemetry struct {
	reg *obs.Registry
	// snap is the sample every scrape-time series of one exposition
	// projects. The registry's scrape hook refreshes it before any series
	// is read, and scrapes are serialised, so it needs no lock of its own.
	snap *sample

	jobsSubmitted *obs.Counter
	completed     map[fedshap.JobState]*obs.Counter // by terminal state

	jobDuration *obs.Histogram
	queueWait   *obs.Histogram

	evalLatency map[string]*obs.Histogram // by serving source

	evalsFresh  *obs.Counter
	evalsWarmed *obs.Counter

	valuesSnapshots *obs.Counter
	earlyStops      *obs.Counter
	budgetSaved     *obs.Counter
	revaluations    *obs.Counter
}

// sample is one reading of daemon state, taken once per scrape: every
// scrape-time series of one exposition projects it, so two of them never
// disagree.
type sample struct {
	queued, running, queueDepth, queueCapacity int
	subscribers, pendingWrites, wantedWorkers  int
	storeFingerprints                          int
	storeBytes, journalBytes                   int64
	compactions, compactionDropped             int64
	degraded                                   bool
	// fleet is nil when the daemon runs without a coordinator.
	fleet *fedshap.FleetMetrics
}

// sample is the one place daemon state is read for monitoring: queued and
// running jobs, queue depth, store and journal size on disk, and — with a
// coordinator configured — the adaptive scheduler's fleet state. The
// registry's scrape hook (see newTelemetry) takes it.
func (m *Manager) sample() *sample {
	s := sample{
		queueDepth: len(m.queue),
		// The channel's real capacity, not cfg.QueueCap: crash recovery
		// sizes the channel up to fit a replayed backlog, and a depth
		// gauge must never read past its capacity.
		queueCapacity:     cap(m.queue),
		compactions:       m.compactions.Load(),
		compactionDropped: m.compactDropped.Load(),
		degraded:          m.Degraded(),
		subscribers:       m.hub.subscriberCount(),
	}
	m.mu.Lock()
	for _, j := range m.jobs {
		j.mu.Lock()
		switch j.status.State {
		case fedshap.JobQueued:
			s.queued++
		case fedshap.JobRunning:
			s.running++
		}
		j.mu.Unlock()
	}
	m.mu.Unlock()
	if m.store != nil {
		if stats, err := m.store.Stats(); err == nil {
			s.storeFingerprints = stats.Fingerprints
			s.storeBytes = stats.Bytes
		}
		s.pendingWrites = m.store.PendingWrites()
	}
	if m.journal != nil {
		s.journalBytes = m.journal.Size()
	}
	if c := m.cfg.Coordinator; c != nil {
		fleet := c.Stats()
		s.fleet = &fleet
		s.wantedWorkers = c.WantedWorkers(wantedWorkersTarget)
	}
	return &s
}

// evalLatencyBuckets spans cache lookups (microseconds) through full
// federated trainings (minutes) in one histogram family.
var evalLatencyBuckets = obs.ExpBuckets(1e-6, 10, 10)

// newTelemetry registers every fedvald_* series against m.
func newTelemetry(m *Manager) *telemetry {
	r := obs.NewRegistry()
	t := &telemetry{
		reg:         r,
		completed:   make(map[fedshap.JobState]*obs.Counter, 4),
		evalLatency: make(map[string]*obs.Histogram, 3),
	}
	r.OnScrape(func() { t.snap = m.sample() })

	t.jobsSubmitted = r.NewCounter("fedvald_jobs_submitted_total",
		"Valuation jobs accepted by POST /v1/jobs since process start.")
	for _, state := range []fedshap.JobState{fedshap.JobDone, fedshap.JobFailed, fedshap.JobCancelled, fedshap.JobTimedOut} {
		t.completed[state] = r.NewCounter("fedvald_jobs_completed_total",
			"Jobs reaching a terminal state, by outcome.", "state", string(state))
	}

	t.jobDuration = r.NewHistogram("fedvald_job_duration_seconds",
		"End-to-end job latency, enqueue to terminal state.",
		obs.ExpBuckets(0.01, 2, 16))
	t.queueWait = r.NewHistogram("fedvald_job_queue_wait_seconds",
		"Time jobs spend queued before a pool worker picks them up.",
		obs.ExpBuckets(0.001, 4, 10))

	for _, source := range []string{"cache", "local", "remote"} {
		t.evalLatency[source] = r.NewHistogram("fedvald_eval_latency_seconds",
			"Coalition evaluation latency by serving source (cache lookup, in-process training, fleet round trip).",
			evalLatencyBuckets, "source", source)
	}

	t.evalsFresh = r.NewCounter("fedvald_evaluations_total",
		"Coalition utilities produced, by kind: fresh trainings vs store-warmed preloads.", "kind", "fresh")
	t.evalsWarmed = r.NewCounter("fedvald_evaluations_total",
		"Coalition utilities produced, by kind: fresh trainings vs store-warmed preloads.", "kind", "warmed")

	t.valuesSnapshots = r.NewCounter("fedvald_values_snapshots_total",
		"Interim anytime value snapshots streamed over SSE.")
	t.earlyStops = r.NewCounter("fedvald_early_stops_total",
		"Jobs halted early because every pairwise ranking resolved at the requested confidence.")
	t.budgetSaved = r.NewCounter("fedvald_budget_saved_evaluations_total",
		"Planned coalition evaluations skipped by early stopping.")
	t.revaluations = r.NewCounter("fedvald_revaluations_total",
		"Delta revaluation jobs submitted via POST /v1/jobs/{id}/revalue.")

	r.NewGaugeFunc("fedvald_queued_jobs", "Jobs currently queued.",
		func() float64 { return float64(t.snap.queued) })
	r.NewGaugeFunc("fedvald_running_jobs", "Jobs currently running.",
		func() float64 { return float64(t.snap.running) })
	r.NewGaugeFunc("fedvald_job_queue_depth_jobs", "Jobs waiting for a pool worker.",
		func() float64 { return float64(t.snap.queueDepth) })
	r.NewGaugeFunc("fedvald_job_queue_capacity_jobs", "Admission limit of the job queue.",
		func() float64 { return float64(t.snap.queueCapacity) })
	r.NewGaugeFunc("fedvald_sse_subscribers", "Open SSE event-stream subscriptions across all jobs.",
		func() float64 { return float64(t.snap.subscribers) })
	r.NewGaugeFunc("fedvald_degraded",
		"1 while the daemon runs memory-only after a persistence write failure, 0 when the journal and store are healthy.",
		func() float64 {
			if t.snap.degraded {
				return 1
			}
			return 0
		})
	r.NewGaugeFunc("fedvald_store_pending_writes",
		"Utilities buffered in memory while the store's disk is failing (flushed on recovery).",
		func() float64 { return float64(t.snap.pendingWrites) })

	r.NewGaugeFunc("fedvald_cache_hit_ratio",
		"Warmed / (warmed + fresh) coalition utilities since process start.",
		func() float64 {
			warmed, fresh := float64(t.evalsWarmed.Value()), float64(t.evalsFresh.Value())
			if warmed+fresh == 0 {
				return 0
			}
			return warmed / (warmed + fresh)
		})
	r.NewGaugeFunc("fedvald_store_bytes", "Persistent utility store size on disk.",
		func() float64 { return float64(t.snap.storeBytes) })
	r.NewGaugeFunc("fedvald_store_fingerprints", "Problem fingerprints in the persistent utility store.",
		func() float64 { return float64(t.snap.storeFingerprints) })
	r.NewGaugeFunc("fedvald_journal_bytes", "Durable job journal size on disk (0 when durability is off).",
		func() float64 { return float64(t.snap.journalBytes) })
	r.NewCollector("fedvald_compactions_total",
		"Store+journal compaction sweeps run since process start.", obs.TypeCounter,
		func() []obs.Sample { return one(t.snap.compactions) })
	r.NewCollector("fedvald_compaction_dropped_total",
		"Duplicate records removed by compaction sweeps.", obs.TypeCounter,
		func() []obs.Sample { return one(t.snap.compactionDropped) })

	if m.cfg.Coordinator != nil { // then every sample carries a fleet
		r.NewGaugeFunc("fedvald_fleet_workers", "Remote evaluation workers attached.",
			func() float64 { return float64(len(t.snap.fleet.Workers)) })
		r.NewGaugeFunc("fedvald_fleet_capacity_tasks", "Aggregate in-flight evaluation limit of the fleet.",
			func() float64 { return float64(t.snap.fleet.TotalCapacity) })
		r.NewGaugeFunc("fedvald_fleet_pending_tasks", "Evaluations queued on the coordinator, unassigned.",
			func() float64 { return float64(t.snap.fleet.PendingTasks) })
		r.NewGaugeFunc("fedvald_fleet_wanted_workers",
			"Autoscaling signal: workers needed to drain the evaluation backlog (queue depth x EWMA latency) within 30s.",
			func() float64 { return float64(t.snap.wantedWorkers) })
		r.NewCollector("fedvald_fleet_redispatch_total",
			"Evaluations re-dispatched, by reason: speculative straggler relief, worker death, or task deadline.", obs.TypeCounter,
			func() []obs.Sample {
				f := t.snap.fleet
				return []obs.Sample{
					{Labels: []string{"reason", "straggler"}, Value: float64(f.Redispatches)},
					{Labels: []string{"reason", "worker-death"}, Value: float64(f.Requeues)},
					{Labels: []string{"reason", "deadline"}, Value: float64(f.DeadlineRequeues)},
				}
			})
		r.NewCollector("fedvald_fleet_quarantined_workers",
			"Worker names currently benched by flap quarantine: 1 per benched name.", obs.TypeGauge,
			func() []obs.Sample {
				out := make([]obs.Sample, 0, len(t.snap.fleet.Quarantined))
				for _, name := range t.snap.fleet.Quarantined {
					out = append(out, obs.Sample{Labels: []string{"worker", name}, Value: 1})
				}
				return out
			})
		r.NewCollector("fedvald_fleet_quarantine_rejections_total",
			"Attach attempts refused because the worker name was serving a quarantine bench.", obs.TypeCounter,
			func() []obs.Sample { return one(t.snap.fleet.QuarantineRejections) })
		r.NewCollector("fedvald_fleet_refused_frames_total",
			"Worker links ended because a frame was over the size cap or did not decode as a result.", obs.TypeCounter,
			func() []obs.Sample { return one(t.snap.fleet.RefusedFrames) })
		r.NewCollector("fedvald_fleet_redispatch_wins_total",
			"Speculative copies that answered before the original assignment.", obs.TypeCounter,
			func() []obs.Sample { return one(t.snap.fleet.RedispatchWins) })
		r.NewCollector("fedvald_fleet_worker_completed_total",
			"Evaluations answered, per attached worker.", obs.TypeCounter,
			t.perWorker(func(w fedshap.WorkerInfo) float64 { return float64(w.Completed) }))
		r.NewCollector("fedvald_fleet_worker_redispatched_total",
			"Speculative relief copies received, per attached worker.", obs.TypeCounter,
			t.perWorker(func(w fedshap.WorkerInfo) float64 { return float64(w.Redispatched) }))
		r.NewCollector("fedvald_fleet_worker_inflight_tasks",
			"Evaluations currently assigned, per attached worker.", obs.TypeGauge,
			t.perWorker(func(w fedshap.WorkerInfo) float64 { return float64(w.InFlight) }))
		r.NewCollector("fedvald_fleet_worker_ewma_seconds",
			"EWMA evaluation latency, per attached worker.", obs.TypeGauge,
			t.perWorker(func(w fedshap.WorkerInfo) float64 { return w.EWMAMillis / 1000 }))
	}
	return t
}

// one is the sample list of an unlabelled single-valued collector.
func one(v int64) []obs.Sample { return []obs.Sample{{Value: float64(v)}} }

// perWorker is a collector projecting the sampled fleet listing into one
// sample per worker. Label identity is the worker name plus the
// coordinator-assigned id, so two workers launched with the same -name
// stay distinguishable.
func (t *telemetry) perWorker(value func(fedshap.WorkerInfo) float64) func() []obs.Sample {
	return func() []obs.Sample {
		out := make([]obs.Sample, 0, len(t.snap.fleet.Workers))
		for _, w := range t.snap.fleet.Workers {
			out = append(out, obs.Sample{
				Labels: []string{"worker", w.Name, "id", strconv.Itoa(w.ID)},
				Value:  value(w),
			})
		}
		return out
	}
}

// observeEval routes one evaluation latency sample to its source series
// (cache | local | remote).
func (t *telemetry) observeEval(source string, seconds float64) {
	t.evalLatency[source].Observe(seconds)
}

// WorkerTelemetry is the fedvalworker daemon's metric surface, served on
// its -pprof debug listener: evaluation counts by outcome and a latency
// histogram. Observe is plugged into evalnet.Worker.Observe.
type WorkerTelemetry struct {
	reg      *obs.Registry
	outcomes map[string]*obs.Counter // fresh | warm | error
	latency  *obs.Histogram
}

// NewWorkerTelemetry builds the fedvalworker registry.
func NewWorkerTelemetry() *WorkerTelemetry {
	r := obs.NewRegistry()
	t := &WorkerTelemetry{reg: r, outcomes: make(map[string]*obs.Counter, 3)}
	for _, outcome := range []string{"fresh", "warm", "error"} {
		t.outcomes[outcome] = r.NewCounter("fedvalworker_evaluations_total",
			"Assignments answered, by outcome: fresh training, warm cache answer, or error.", "outcome", outcome)
	}
	t.latency = r.NewHistogram("fedvalworker_eval_latency_seconds",
		"Wall time per answered assignment.", evalLatencyBuckets)
	return t
}

// Registry exposes the registry for the debug listener's /metrics route.
func (t *WorkerTelemetry) Registry() *obs.Registry { return t.reg }

// Observe records one answered assignment (evalnet.Worker.Observe).
func (t *WorkerTelemetry) Observe(outcome string, seconds float64) {
	t.outcomes[outcome].Inc()
	t.latency.Observe(seconds)
}
