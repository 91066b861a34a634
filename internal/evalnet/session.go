package evalnet

import (
	"context"
	"runtime"
	"strconv"
	"sync"
	"time"

	"fedshap/internal/combin"
	"fedshap/internal/obs"
	"fedshap/internal/utility"
)

// Session is one job's handle on the fleet. Its Eval method is the remote
// utility.EvalFunc plugged into the job's oracle; SessionConfig.Local is the
// in-process evaluation used as the fallback.
type Session struct {
	sched *scheduler
	ctx   context.Context
	// cfg is the job's configuration: the spec shipped to workers, the
	// local fallback and the telemetry hooks.
	cfg SessionConfig
	// localSem bounds concurrent local fallback evaluations at the job's
	// own local limit: the pool is sized for the fleet's capacity, so
	// when the fleet vanishes mid-job the queued Evals must not all start
	// training on this machine at once.
	localSem chan struct{}

	// agg accumulates one dispatch span per worker that served this
	// session, flushed into the trace at Close. Guarded by sched.mu, as is
	// closed.
	agg    map[int]*dispatchStats
	closed bool
	// stop detaches the cancellation push registered on ctx.
	stop      func() bool
	closeOnce sync.Once
}

// dispatchStats is a session's running aggregate of one worker's service:
// it materialises as a per-worker "dispatch" span in the job trace, with
// the worker-reported evaluation time merged in from result messages.
type dispatchStats struct {
	name        string
	first, last time.Time
	tasks       int64
	warm        int64
	fresh       int64
	failed      int64
	speculative int64
	evalNanos   int64
}

// SessionConfig configures one job's fleet session.
type SessionConfig struct {
	// Spec identifies the job's valuation problem to workers.
	Spec ProblemSpec
	// Local is the in-process evaluation fallback.
	Local utility.EvalFunc
	// LocalLimit bounds the session's concurrent local-fallback
	// evaluations — the concurrency the job would use with no fleet at all
	// (<= 0 selects GOMAXPROCS).
	LocalLimit int
	// Observe, when set, receives the coordinator-measured latency of
	// every fleet-served result under source "remote" — the service's
	// eval-latency-by-source histograms hang off it. Called outside the
	// scheduler lock.
	Observe func(source string, seconds float64)
	// Trace, when set, collects the job's fleet-side spans: one
	// per-worker dispatch span (task counts by warm/fresh/speculative
	// outcome plus worker-reported evaluation seconds, flushed at Close)
	// and instant redispatch events with their reason (worker-death or
	// straggler).
	Trace *obs.Trace
}

func newSession(ctx context.Context, sched *scheduler, cfg SessionConfig) *Session {
	if cfg.LocalLimit <= 0 {
		cfg.LocalLimit = runtime.GOMAXPROCS(0)
	}
	s := &Session{sched: sched, ctx: ctx, cfg: cfg, localSem: make(chan struct{}, cfg.LocalLimit)}
	if cfg.Trace != nil {
		s.agg = make(map[int]*dispatchStats)
	}
	// Push cancellation to the fleet as soon as it happens, not just when
	// the job's deferred Close runs.
	s.stop = context.AfterFunc(ctx, func() { sched.cancel(s, false) })
	return s
}

// redispatchEvent records in the job trace that some of the session's
// tasks changed hands, and why.
func (s *Session) redispatchEvent(reason string, attrs ...string) {
	s.cfg.Trace.Event("redispatch", "daemon", append([]string{"reason", reason}, attrs...)...)
}

// Eval evaluates one coalition on the fleet, blocking until a result
// arrives. With no workers connected (or after coordinator shutdown) it
// evaluates locally. If the session context is cancelled while waiting it
// panics with a *utility.Abort carrying the context's error — the oracle's
// failure contract, recovered by Prefetch and shapley.Run.
func (s *Session) Eval(coal combin.Coalition) float64 {
	if err := s.ctx.Err(); err != nil {
		panic(&utility.Abort{Err: err})
	}
	t := s.sched.enqueue(s, coal, time.Now())
	if t == nil {
		return s.localEval(coal)
	}
	select {
	case r := <-t.ch:
		if r.fallback {
			return s.localEval(coal)
		}
		if s.cfg.Observe != nil && r.remote > 0 {
			s.cfg.Observe("remote", r.remote.Seconds())
		}
		return r.u
	case <-s.ctx.Done():
		// The cancellation push (newSession) takes t out of the queue.
		panic(&utility.Abort{Err: s.ctx.Err()})
	}
}

// localEval runs the in-process fallback, bounded by the local machine's
// parallelism and aborting rather than training when the job is already
// cancelled (a worker's "spec cancelled" error reply can race ctx.Done in
// Eval's select).
func (s *Session) localEval(coal combin.Coalition) float64 {
	if err := s.ctx.Err(); err != nil {
		panic(&utility.Abort{Err: err})
	}
	s.localSem <- struct{}{}
	defer func() { <-s.localSem }()
	return s.cfg.Local(coal)
}

// Close ends the session: its queued tasks fall back to local delivery,
// workers drop the spec, and the registration is removed. Idempotent.
func (s *Session) Close() {
	s.closeOnce.Do(func() {
		s.stop()
		// Materialise the per-worker dispatch spans: one per worker that
		// served this job, carrying the worker-reported evaluation time
		// merged from its result messages.
		for _, a := range s.sched.cancel(s, true) {
			end := a.last
			if end.IsZero() {
				end = a.first // assigned but never answered (e.g. worker died)
			}
			s.cfg.Trace.Add(obs.Span{
				Name: "dispatch", Source: a.name, Start: a.first, End: end,
				Attrs: map[string]string{
					"tasks":        strconv.FormatInt(a.tasks, 10),
					"fresh":        strconv.FormatInt(a.fresh, 10),
					"warm":         strconv.FormatInt(a.warm, 10),
					"failed":       strconv.FormatInt(a.failed, 10),
					"speculative":  strconv.FormatInt(a.speculative, 10),
					"eval_seconds": strconv.FormatFloat(time.Duration(a.evalNanos).Seconds(), 'g', 6, 64),
				},
			})
		}
	})
}
