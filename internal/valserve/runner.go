package valserve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
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
// warm_start → prefetch | anytime_drive → aggregate — hand to each other.
// The job's problem is built at most once, where it is first needed (see
// problem), so a fully warm or fleet-served job synthesises no data.
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

	alg    shapley.Valuer
	oracle *utility.Oracle
	// built guards the one problem build (problem); p, eval and buildErr
	// are its results, read only after built.Do returns.
	built    sync.Once
	p        *experiments.Problem
	eval     utility.EvalFunc
	buildErr error

	workers int              // width of the job's coalition-evaluation pool
	sess    *evalnet.Session // nil without a coordinator
	any     *anytimeState    // nil unless the request asked for a confidence
}

// runJob executes one job on the worker pool. An expected evaluation
// failure (a *utility.Abort) comes back from Prefetch or shapley.Run as an
// error and reaches conclude; this recover is left for programming errors
// in an algorithm or the substrate, which fail the job, not the daemon.
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
	if err := r.prepare(); err != nil {
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
		plan, _ = shapley.PlanFor(r.alg, r.req.N, r.req.Seed+2)
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
		r.any = newAnytimeState(r.m, r.j, r.req.N, r.req.Confidence, nil)
	}
	if r.workers > 1 && len(plan) > 0 {
		if err := r.prefetch(plan); err != nil {
			return nil, err
		}
	}
	return r.aggregate()
}

// prepare resolves the algorithm and creates the job's oracle, whose
// evaluation function builds the problem on the first coalition the daemon
// trains itself (see problem). With the standard builder the job is named
// here, from the request alone.
func (r *run) prepare() (err error) {
	if r.alg, err = NewValuer(r.req.Algorithm, r.req.Gamma, r.req.K); err != nil {
		return err
	}
	if r.m.cfg.BuildProblem == nil {
		name := problemName(r.req)
		r.j.update(func(st *fedshap.JobStatus) { st.Problem = name })
	}
	r.oracle = utility.NewOracle(r.req.N, r.evalLocal)
	return nil
}

// evalLocal trains one coalition on the daemon, building the problem first
// if no evaluation has; a failed build aborts with the builder's error. It
// is the oracle's own evaluation function, which the fleet session wraps
// as its local fallback, so it times every in-process training, and only
// the training, into the "local" series of the eval-source latency
// histogram. Fleet round trips are timed through the session's Observe
// seam (wireOracle) and cache hits by the job's view (jobView.U).
func (r *run) evalLocal(s combin.Coalition) float64 {
	if _, err := r.problem(); err != nil {
		panic(&utility.Abort{Err: err})
	}
	start := time.Now()
	u := r.eval(s)
	r.m.tel.evalLatency["local"].Observe(time.Since(start).Seconds())
	return u
}

// problem builds the job's valuation problem on its first call and returns
// the same one after: the first local evaluation calls it from whichever
// goroutine trains (the others wait on the build), and aggregate calls it
// for an algorithm that reads the FL spec. Its build_problem span thus
// opens inside prefetch, anytime_drive or aggregate. A failed build fails
// every call.
func (r *run) problem() (*experiments.Problem, error) {
	r.built.Do(func() {
		build := r.m.cfg.BuildProblem
		if build == nil {
			build = BuildProblem
		}
		span := r.j.trace.StartSpan("build_problem", "daemon")
		defer span.End()
		r.buildErr = errors.New("problem build panicked") // what a later call sees if build does
		if r.p, r.buildErr = build(r.req); r.buildErr != nil {
			return
		}
		span.SetAttr("problem", r.p.Name)
		if r.m.cfg.BuildProblem != nil {
			r.j.update(func(st *fedshap.JobStatus) { st.Problem = r.p.Name })
		}
		r.eval = r.p.Eval()
	})
	return r.p, r.buildErr
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

// wireOracle connects the oracle to the job — progress and, with a
// coordinator, the worker fleet — and resolves the width of the evaluation
// pool.
func (r *run) wireOracle() {
	tel := r.m.tel
	r.oracle.OnFresh(func(_ combin.Coalition, _ float64, total int) { r.j.setFresh(total) })

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
	// and workers that dial in mid-job are picked up. The session only
	// sees the oracle's misses, so nothing the daemon already knows is
	// sent to the fleet. The pool is widened to the fleet's aggregate capacity
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
				N:           r.req.N,
				Request:     r.req,
			},
			Local:      local,
			LocalLimit: localLimit,
			Observe:    tel.observeEval,
			Trace:      r.j.trace,
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
	r.any = newAnytimeState(r.m, r.j, r.req.N, r.req.Confidence, plan)
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
// An algorithm with no evaluation plan (the Estimator map's "none" kind:
// the reconstruction baselines) reads the FL spec itself, so the problem
// is built for it first; every other algorithm reads only utilities.
//
// The algorithm runs against a per-job budget view, not the raw oracle:
// budget-gated samplers loop on Evals() < γ, and warmed entries
// deliberately don't count as fresh evaluations — without the view, a warm
// cache would make such a sampler draw far past its budget over cached
// lookups. The view charges every distinct coalition this run requests
// (warm or fresh), exactly as a fresh oracle would, while FreshEvals/Report
// keep counting only real training work.
func (r *run) aggregate() (*fedshap.Report, error) {
	var spec *utility.FLSpec
	if _, planned := r.alg.(shapley.Planner); !planned {
		p, err := r.problem()
		if err != nil {
			return nil, err
		}
		spec = p.Spec
	}
	start := time.Now()
	span := r.j.trace.StartSpan("aggregate", "daemon")
	span.SetAttr("algorithm", r.alg.Name())
	sctx := shapley.NewContext(r.view(), r.req.Seed+2).WithSpec(spec).WithContext(r.ctx)
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
		Names:       clientNames(r.req.N),
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
// own, so shapley.Run binds the job context to this scope. U adds
// what the job observes of each request: it times a request the oracle
// answers from its cache — RunView.Request reports which, from the one
// probe it makes — into the "cache" eval-latency series, and on an
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
	u, hit := v.RunView.Request(s)
	if hit {
		v.hits.Observe(time.Since(start).Seconds())
	}
	if a := v.r.any; a != nil && a.rp.Add(s, u) {
		a.publish(false)
	}
	return u
}
