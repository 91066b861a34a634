package valserve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"fedshap"
	"fedshap/internal/combin"
	"fedshap/internal/evalnet"
	"fedshap/internal/experiments"
	"fedshap/internal/obs"
	"fedshap/internal/shapley"
	"fedshap/internal/utility"
)

// run is one job's execution: what its stages — the spans the trace names,
// build_problem → warm_start → prefetch | anytime_drive → aggregate — hand
// to each other.
type run struct {
	m   *Manager
	j   *Job
	st  *fedshap.JobStatus // the job as it left the queue: ID, fingerprint, budget
	req fedshap.JobRequest
	// ctx bounds every stage: j.ctx narrowed by the request's deadline. The
	// deadline clock starts when the job leaves the queue, not at
	// submission — queue wait is the daemon's fault, not the job's — and
	// j.ctx alone still distinguishes explicit cancellation (see conclude).
	ctx context.Context

	alg     shapley.Valuer
	p       *experiments.Problem
	oracle  *utility.Oracle
	workers int              // width of the job's coalition-evaluation pool
	sess    *evalnet.Session // nil without a coordinator
	any     *anytimeState    // nil unless the request asked for a confidence
}

// runJob executes one job on the worker pool. Algorithm or substrate
// panics become job failures, not daemon crashes: this recover is the only
// one on the job path.
func (m *Manager) runJob(j *Job) {
	if !j.markRunning() {
		return // cancelled while queued
	}
	defer j.cancel()
	defer func() {
		if r := recover(); r != nil {
			j.finish(fedshap.JobFailed, fmt.Sprintf("panic: %v", r), nil)
		}
	}()
	st := j.snapshot()
	r := &run{m: m, j: j, st: st, req: st.Request, ctx: j.ctx}
	if d := r.req.DeadlineSeconds; d > 0 {
		var cancelDeadline context.CancelFunc
		r.ctx, cancelDeadline = context.WithTimeout(j.ctx, time.Duration(d*float64(time.Second)))
		defer cancelDeadline()
	}
	// The fleet session outlives the terminal event: closing it
	// materialises the per-worker dispatch spans into the trace.
	defer func() {
		if r.sess != nil {
			r.sess.Close()
		}
	}()
	r.conclude(r.stages())
}

// conclude maps a run's outcome to the job's terminal state. A
// cancellation-shaped error is a timeout when the run deadline expired
// while nobody cancelled the job itself; every other interruption — user
// cancel, shutdown — stays cancelled. Anything else is a failure.
func (r *run) conclude(rep *fedshap.Report, err error) {
	switch {
	case err == nil:
		r.j.finish(fedshap.JobDone, "", rep)
	case !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded):
		r.j.finish(fedshap.JobFailed, err.Error(), nil)
	case errors.Is(r.ctx.Err(), context.DeadlineExceeded) && r.j.ctx.Err() == nil:
		r.j.finish(fedshap.JobTimedOut,
			fmt.Sprintf("deadline exceeded (%gs)", r.req.DeadlineSeconds), nil)
	default:
		r.j.finish(fedshap.JobCancelled, err.Error(), nil)
	}
}

// stages runs the job to its report.
func (r *run) stages() (*fedshap.Report, error) {
	if err := r.buildProblem(); err != nil {
		return nil, err
	}
	if err := r.warmStart(); err != nil {
		return nil, err
	}
	r.wireOracle()

	// The algorithm's deterministic evaluation plan — the full seeded
	// sampling sequence for the samplers, the certain set otherwise — is
	// replayed from the same seed the run's Context uses, so it is exactly
	// the run's request sequence: values, budget metering and
	// fresh-evaluation counts are untouched by evaluating it ahead.
	var plan []combin.Coalition
	if r.req.Confidence > 0 || r.workers > 1 {
		plan, _ = shapley.PlanFor(r.alg, r.p.N, r.req.Seed+2)
	}
	// Anytime valuation: a requested confidence turns on interval
	// tracking. Plan-exhaustive algorithms are *driven* — their complete
	// plan is evaluated chunk by chunk in plan order (replacing the
	// prefetch pass), streaming interim snapshots and, with rank_stop,
	// finishing the job the moment every pairwise ranking is resolved.
	// For algorithms without a complete plan the reduction folds every
	// coalition it requests, warm or fresh, in request order, and the
	// intervals ride along on the final report, but the job never stops
	// early (ValidateRequest already rejected rank_stop for them).
	if r.req.Confidence > 0 && len(plan) > 0 && shapley.PlanExhaustive(r.alg) {
		if rep, err := r.anytimeDrive(plan); rep != nil || err != nil {
			return rep, err
		}
		return r.aggregate()
	}
	if r.req.Confidence > 0 {
		r.any = newAnytimeState(r.m, r.j, r.p.N, r.req.Confidence, nil)
	}
	if r.workers > 1 && len(plan) > 0 {
		if err := r.prefetch(plan); err != nil {
			return nil, err
		}
	}
	return r.aggregate()
}

// buildProblem resolves the algorithm and constructs the valuation problem
// and its oracle.
func (r *run) buildProblem() (err error) {
	if r.alg, err = NewValuer(r.req.Algorithm, r.req.Gamma, r.req.K); err != nil {
		return err
	}
	build := r.m.cfg.BuildProblem
	if build == nil {
		build = BuildProblem
	}
	span := r.j.trace.StartSpan("build_problem", "daemon")
	if r.p, err = build(r.req); err != nil {
		span.End()
		return err
	}
	span.SetAttr("problem", r.p.Name)
	span.End()
	r.j.update(func(st *fedshap.JobStatus) { st.Problem = r.p.Name })
	r.oracle = r.p.Oracle()
	return nil
}

// warmStart preloads the oracle with every utility the persistent store
// holds for the job's fingerprint.
func (r *run) warmStart() error {
	if r.m.store == nil {
		return nil
	}
	span := r.j.trace.StartSpan("warm_start", "daemon")
	warmed, err := r.m.store.Attach(r.oracle, r.st.Fingerprint)
	if err != nil {
		span.End()
		return err
	}
	span.SetInt("warmed", int64(warmed))
	span.End()
	r.j.update(func(st *fedshap.JobStatus) { st.WarmedCoalitions = warmed })
	r.m.tel.evalsWarmed.Add(int64(warmed))
	return nil
}

// wireOracle connects the oracle to the job — progress, the fresh half of
// the eval-source latency series and, with a coordinator, the worker fleet
// — and resolves the width of the evaluation pool.
func (r *run) wireOracle() {
	tel := r.m.tel
	r.oracle.OnFresh(func(_ combin.Coalition, _ float64, total int) { r.j.setFresh(total) })
	// Eval-source latency series: in-process trainings via an innermost
	// eval wrapper — installed before the coordinator session wraps it, so
	// the session's local-fallback path is timed as "local" — and fleet
	// round trips via the session's Observe seam below. Cache hits are
	// timed by the job's view (jobView.U).
	local := tel.evalLatency["local"]
	r.oracle.WrapEval(func(inner utility.EvalFunc) utility.EvalFunc {
		return func(s combin.Coalition) float64 {
			evalStart := time.Now()
			u := inner(s)
			local.Observe(time.Since(evalStart).Seconds())
			return u
		}
	})

	// The request's preference, else the daemon's, else one slot per CPU.
	r.workers = r.req.Workers
	if r.workers <= 0 {
		r.workers = r.m.cfg.EvalWorkers
	}
	if r.workers <= 0 {
		r.workers = runtime.GOMAXPROCS(0)
	}

	// With a coordinator configured, swap the oracle's evaluation function
	// for a distributed session: coalitions dispatch to remote workers and
	// results flow back through the same cache, budget accounting and
	// write-through. The session is registered even when the fleet is
	// momentarily empty — evaluations then run through the local fallback,
	// and workers that dial in mid-job are picked up. Each worker's first
	// spec message ships the oracle's cache snapshot at that moment
	// (store-warmed entries plus everything evaluated so far), so a
	// recycled or late-attaching fleet never retrains what the daemon
	// already knows. The pool is widened to the fleet's aggregate capacity
	// (Eval blocks while a worker trains, so pool slots, not CPUs, keep
	// the fleet busy) unless the request or the daemon set an explicit
	// worker limit, which stays an upper bound on the job's concurrency
	// wherever it runs.
	c := r.m.cfg.Coordinator
	if c == nil {
		return
	}
	localLimit := r.workers
	r.oracle.WrapEval(func(local utility.EvalFunc) utility.EvalFunc {
		r.sess = c.NewSessionWith(r.ctx, evalnet.SessionConfig{
			Spec: evalnet.ProblemSpec{
				ID:          r.st.ID,
				Fingerprint: r.st.Fingerprint,
				N:           r.p.N,
				Request:     r.req,
			},
			Local:        local,
			LocalLimit:   localLimit,
			WarmSnapshot: warmSource(r.oracle, r.m.store, r.st.Fingerprint),
			Observe:      tel.observeEval,
			Trace:        r.j.trace,
		})
		return r.sess.Eval
	})
	attached := c.WorkerCount()
	r.j.update(func(st *fedshap.JobStatus) { st.RemoteWorkers = attached })
	if capacity := c.TotalCapacity(); r.req.Workers <= 0 && r.m.cfg.EvalWorkers <= 0 && capacity > r.workers {
		r.workers = capacity
	}
}

// anytimeDrive evaluates a complete plan under interval tracking. A non-nil
// report means rank_stop resolved every ranking and the job is done without
// running the algorithm's own reduction.
func (r *run) anytimeDrive(plan []combin.Coalition) (*fedshap.Report, error) {
	r.any = newAnytimeState(r.m, r.j, r.p.N, r.req.Confidence, plan)
	start := time.Now()
	span := r.j.trace.StartSpan("anytime_drive", "daemon")
	span.SetInt("planned", int64(len(plan)))
	span.SetInt("workers", int64(r.workers))
	stopped, err := r.drivePlan(plan)
	span.End()
	if err != nil || !stopped {
		return nil, err
	}
	rep := r.any.report(r.alg.Name(), r.st.Budget, r.oracle.Evals(), time.Since(start).Seconds())
	r.m.tel.earlyStops.Inc()
	r.m.tel.budgetSaved.Add(int64(rep.BudgetUnspent))
	return rep, nil
}

// prefetch pipelines the plan through the job's evaluation pool (and, via
// the wrapped eval function, across the remote fleet), so the sequential
// reduction that follows runs against a warm cache. A cancellation or a
// non-finite utility mid-prefetch ends the job with Prefetch's error, as in
// shapley.RunPooled: the reduction would only retrain what the stopped
// pool left, the failing coalition included.
func (r *run) prefetch(plan []combin.Coalition) error {
	span := r.j.trace.StartSpan("prefetch", "daemon")
	span.SetInt("planned", int64(len(plan)))
	span.SetInt("workers", int64(r.workers))
	err := r.oracle.Prefetch(r.ctx, plan, r.workers)
	span.End()
	return err
}

// aggregate runs the algorithm's reduction and assembles the report.
//
// The algorithm runs against a per-job budget view, not the raw oracle:
// budget-gated samplers loop on Evals() < γ, and warmed entries
// deliberately don't count as fresh evaluations — without the view, a warm
// cache would make such a sampler draw far past its budget over cached
// lookups. The view charges every distinct coalition this run requests
// (warm or fresh), exactly as a fresh oracle would, while FreshEvals/Report
// keep counting only real training work.
func (r *run) aggregate() (*fedshap.Report, error) {
	start := time.Now()
	span := r.j.trace.StartSpan("aggregate", "daemon")
	span.SetAttr("algorithm", r.alg.Name())
	sctx := shapley.NewContext(r.view(), r.req.Seed+2).WithSpec(r.p.Spec).WithContext(r.ctx)
	values, err := shapley.Run(sctx, r.alg)
	span.SetInt("evaluations", int64(r.oracle.Evals()))
	span.End()
	elapsed := time.Since(start).Seconds()
	if err != nil {
		return nil, err
	}
	rep := &fedshap.Report{
		Algorithm:   r.alg.Name(),
		Values:      values,
		Names:       clientNames(r.p.N),
		Seconds:     elapsed,
		Evaluations: r.oracle.Evals(),
	}
	if r.any != nil {
		r.any.decorate(rep)
	}
	return rep, nil
}

// jobView is the one budget scope through which a job reads every utility
// it uses: the plan drive's chunks and the algorithm's reduction each read
// through one. N, Cached, Evals and SetContext are the embedded RunView's
// own, so shapley.Run still binds the job context to the oracle. U adds
// what the job observes of each request: it times a request the oracle
// answers from its cache into the "cache" eval-latency series, and on an
// anytime job it folds each coalition the tracker has not seen yet and
// publishes the new snapshot (throttled).
type jobView struct {
	*utility.RunView
	r    *run
	hits *obs.Histogram
}

// view opens a fresh budget scope over the job's oracle.
func (r *run) view() jobView {
	return jobView{utility.NewRunView(r.oracle), r, r.m.tel.evalLatency["cache"]}
}

// U implements utility.Source.
func (v jobView) U(s combin.Coalition) float64 {
	start := time.Now()
	hit := v.r.oracle.Cached(s)
	u := v.RunView.U(s)
	if hit {
		v.hits.Observe(time.Since(start).Seconds())
	}
	if a := v.r.any; a != nil && a.rp.Add(s, u) {
		a.publish(false)
	}
	return u
}

// warmSource builds a job's warm-start snapshot provider: the job
// oracle's cache unioned with the persistent store's *current* contents
// for the fingerprint. The store re-read matters: this job's oracle only
// knows what it was warmed with at attach time, but a concurrent job on
// the same fingerprint writes utilities through to the store while this
// one runs — and only coalitions missing from *this* oracle are ever
// dispatched to the fleet, so the store is exactly where a shippable
// answer the coordinator would otherwise retrain can still appear. The
// function runs on the coordinator's writer goroutines (once per worker
// and job), never on the scheduler lock, so the disk read is off every
// hot path.
func warmSource(oracle *utility.Oracle, store *utility.Store, fingerprint string) func() map[combin.Coalition]float64 {
	return func() map[combin.Coalition]float64 {
		snap := oracle.Snapshot()
		if store == nil {
			return snap
		}
		persisted, err := store.Load(fingerprint)
		if err != nil {
			return snap
		}
		for coal, u := range persisted {
			if _, ok := snap[coal]; !ok {
				snap[coal] = u
			}
		}
		return snap
	}
}
