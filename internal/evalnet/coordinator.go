package evalnet

import (
	"context"
	"log/slog"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"fedshap"
	"fedshap/internal/obs"
	"fedshap/internal/resilience"
)

// SchedulerConfig tunes the coordinator's adaptive scheduler. The zero
// value of every field selects a sensible default, so NewCoordinator
// callers that don't care get latency-aware scheduling with speculation
// enabled out of the box.
type SchedulerConfig struct {
	// DisableSpeculation turns straggler re-dispatch off: tasks then run on
	// exactly one worker until it answers or dies. Speculation never
	// changes results or budget accounting (the first result wins and
	// duplicates are discarded), so it is on by default.
	DisableSpeculation bool
	// SpeculateFactor is the straggler threshold: a task is re-dispatched
	// once its in-flight age exceeds Factor × the fleet's EWMA evaluation
	// latency (default 3). Raise it on fleets with naturally noisy
	// per-coalition cost.
	SpeculateFactor float64
	// SpeculateMinAge floors the straggler threshold, so a fleet of
	// uniformly fast workers doesn't duplicate work over scheduling jitter
	// (default 50ms).
	SpeculateMinAge time.Duration
	// SpeculateTick is how often the coordinator scans for stragglers
	// while idle capacity exists (default 25ms). The same ticker drives
	// the task-deadline reaper when TaskDeadline is set.
	SpeculateTick time.Duration
	// TaskDeadline bounds how long one assignment may sit unanswered on a
	// worker before it is forcibly requeued (0 disables). Unlike the
	// straggler scan — which only duplicates work when idle capacity
	// exists — the reaper fires regardless of fleet load, so a task on a
	// stalled (SIGSTOP'd, wedged) worker whose connection stays open is
	// still rescued. The stalled worker's eventual result is discarded as
	// stale, so results and budgets stay bit-identical.
	TaskDeadline time.Duration
	// FlapThreshold benches a worker name after this many losses inside
	// FlapWindow (default 3; < 0 disables quarantine). A benched name is
	// refused at Attach until its penalty expires; the penalty starts at
	// BenchBase and doubles per bench up to BenchMax.
	FlapThreshold int
	// FlapWindow is the sliding window flap losses are counted in
	// (default 1m).
	FlapWindow time.Duration
	// BenchBase is the first quarantine penalty (default 5s).
	BenchBase time.Duration
	// BenchMax caps the doubling quarantine penalty (default 2m).
	BenchMax time.Duration
	// Logger receives structured fleet lifecycle logs (worker attach and
	// loss, straggler re-dispatch) with worker/job correlation attributes;
	// nil discards them.
	Logger *slog.Logger
}

func (sc *SchedulerConfig) fillDefaults() {
	if sc.SpeculateFactor <= 0 {
		sc.SpeculateFactor = 3
	}
	if sc.SpeculateMinAge <= 0 {
		sc.SpeculateMinAge = 50 * time.Millisecond
	}
	if sc.SpeculateTick <= 0 {
		sc.SpeculateTick = 25 * time.Millisecond
	}
	if sc.FlapThreshold == 0 {
		sc.FlapThreshold = 3
	}
	if sc.FlapWindow <= 0 {
		sc.FlapWindow = time.Minute
	}
	if sc.BenchBase <= 0 {
		sc.BenchBase = 5 * time.Second
	}
	if sc.BenchMax <= 0 {
		sc.BenchMax = 2 * time.Minute
	}
	if sc.Logger == nil {
		sc.Logger = obs.NopLogger()
	}
}

// Coordinator owns the worker fleet and schedules coalition evaluations
// onto it. It is safe for concurrent use by many jobs; a single Coordinator
// is shared by every job a valserve.Manager runs.
type Coordinator struct {
	// sched decides; the coordinator supplies what the scheduler may not
	// name: connections (one link per worker), the wall clock and the
	// ticker that drives the periodic scans.
	sched *scheduler

	// flaps tracks worker losses per name; a name flapping past the
	// threshold is benched and refused at attach (nil when disabled).
	// quarantineRejections counts the attaches so refused; refusedFrames
	// counts links ended by a frame over the cap or one that does not
	// decode.
	flaps                *resilience.Tracker
	quarantineRejections atomic.Int64
	refusedFrames        atomic.Int64

	// srv serves the attach route on every listener passed to Serve.
	srv *http.Server

	tickStop  chan struct{}
	tickDone  chan struct{}
	closeOnce sync.Once
}

// NewCoordinator builds an empty coordinator with default scheduling
// (latency-aware picking, speculation on); workers attach through Serve.
func NewCoordinator() *Coordinator {
	return NewCoordinatorWith(SchedulerConfig{})
}

// NewCoordinatorWith builds a coordinator with explicit scheduler tuning.
func NewCoordinatorWith(sched SchedulerConfig) *Coordinator {
	s := newScheduler(sched)
	c := &Coordinator{sched: s}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/fleet/attach", c.attach) // the pattern of attachPath
	c.srv = &http.Server{Handler: mux, ReadHeaderTimeout: ReadHeaderTimeout,
		ConnContext: func(ctx context.Context, conn net.Conn) context.Context {
			return context.WithValue(ctx, connKey{}, conn) // for attach to hang up
		}}
	if s.cfg.FlapThreshold > 0 {
		c.flaps = resilience.NewTracker(resilience.TrackerConfig{
			Threshold:   s.cfg.FlapThreshold,
			Window:      s.cfg.FlapWindow,
			BasePenalty: s.cfg.BenchBase,
			MaxPenalty:  s.cfg.BenchMax,
		})
	}
	if !s.cfg.DisableSpeculation || s.cfg.TaskDeadline > 0 {
		c.tickStop = make(chan struct{})
		c.tickDone = make(chan struct{})
		go c.tickLoop()
	}
	return c
}

// tickLoop feeds the scheduler its clock until Close.
func (c *Coordinator) tickLoop() {
	defer close(c.tickDone)
	t := time.NewTicker(c.sched.cfg.SpeculateTick)
	defer t.Stop()
	for {
		select {
		case <-c.tickStop:
			return
		case <-t.C:
			c.sched.tick(time.Now())
		}
	}
}

// Serve accepts workers' attach requests on ln until Close closes it, and
// returns the error that ended it.
func (c *Coordinator) Serve(ln net.Listener) error {
	return c.srv.Serve(ln)
}

// NewSessionWith registers a job with the coordinator. ctx is the job's
// context: when it is done, queued work is dropped, workers are told to
// skip the spec, and blocked Eval calls abort.
func (c *Coordinator) NewSessionWith(ctx context.Context, cfg SessionConfig) *Session {
	return newSession(ctx, c.sched, cfg)
}

// WorkerCount returns the number of connected workers.
func (c *Coordinator) WorkerCount() int {
	return len(c.sched.stats().Workers)
}

// TotalCapacity returns the fleet's aggregate in-flight limit — the right
// size for an evaluation pool that keeps every worker busy.
func (c *Coordinator) TotalCapacity() int {
	return c.sched.stats().TotalCapacity
}

// Workers snapshots the fleet for the daemon's /v1/workers endpoint.
func (c *Coordinator) Workers() []fedshap.WorkerInfo {
	return c.Stats().Workers
}

// Stats snapshots the scheduler for the daemon's /metrics endpoint.
func (c *Coordinator) Stats() fedshap.FleetMetrics {
	m := c.sched.stats()
	m.QuarantineRejections = c.quarantineRejections.Load()
	m.RefusedFrames = c.refusedFrames.Load()
	if c.flaps != nil {
		m.Quarantined = c.flaps.BenchedKeys()
		for i := range m.Workers {
			m.Workers[i].Flaps = c.flaps.Strikes(m.Workers[i].Name)
		}
	}
	return m
}

// WantedWorkers estimates the fleet size needed to drain the current
// evaluation backlog within the target window — the autoscaling signal
// behind the fedvald_fleet_wanted_workers gauge. The backlog's expected
// compute is (pending + in-flight tasks) × the fleet's EWMA evaluation
// latency; dividing by the window and the mean per-worker capacity yields
// a worker count. With no latency history yet the current fleet size is
// returned (no evidence to scale on); an empty backlog wants zero.
func (c *Coordinator) WantedWorkers(target time.Duration) int {
	if target <= 0 {
		target = 30 * time.Second
	}
	m := c.sched.stats()
	backlog, history, ewmaMillis := m.PendingTasks, 0, 0.0
	for _, w := range m.Workers {
		backlog += w.InFlight
		if w.EWMAMillis > 0 {
			history++
			ewmaMillis += w.EWMAMillis
		}
	}
	if backlog == 0 {
		return 0
	}
	n := len(m.Workers)
	if history == 0 {
		return max(n, 1)
	}
	meanCap := 1.0
	if n > 0 {
		meanCap = float64(m.TotalCapacity) / float64(n)
	}
	work := float64(backlog) * ewmaMillis / float64(history) * float64(time.Millisecond)
	return max(int(math.Ceil(work/float64(target)/meanCap)), 1)
}

// Close shuts the coordinator down: the straggler scan stops, every
// worker is hung up on and all queued work is handed back for local
// evaluation, so no Eval caller blocks forever; then the listeners close.
// The links are hung up first, so their ends count as no worker's loss.
func (c *Coordinator) Close() error {
	c.closeOnce.Do(func() {
		if c.tickStop != nil {
			close(c.tickStop)
			<-c.tickDone
		}
		for _, w := range c.sched.close(time.Now()) {
			w.out.hangup()
		}
	})
	return c.srv.Close()
}
