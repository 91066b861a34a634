package evalnet

import (
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"fedshap"
	"fedshap/internal/combin"
	"fedshap/internal/obs"
	"fedshap/internal/resilience"
	"fedshap/internal/utility"
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
}

// ewmaAlpha weights the latest latency sample in the per-worker EWMA.
const ewmaAlpha = 0.3

// Coordinator owns the worker fleet and schedules coalition evaluations
// onto it. It is safe for concurrent use by many jobs; a single Coordinator
// is shared by every job a valserve.Manager runs.
type Coordinator struct {
	sched SchedulerConfig

	mu      sync.Mutex
	workers map[int]*remoteWorker
	// pending is the FIFO of unassigned tasks; requeues from dead workers
	// go to the front so interrupted work finishes first.
	pending  []*task
	nextWkr  int
	nextTask uint64
	closed   bool

	// redispatches counts speculative task copies dispatched; wins counts
	// the copies that beat the original assignment to the result.
	// requeues counts tasks re-dispatched because their worker died;
	// deadlineRequeues counts tasks reaped off a hung worker by the task
	// deadline; quarantineRejections counts attaches refused while the
	// worker's name served a flap-quarantine bench.
	redispatches         int64
	wins                 int64
	requeues             int64
	deadlineRequeues     int64
	quarantineRejections int64

	// flaps tracks worker losses per name; a name flapping past the
	// threshold is benched and refused at Attach (nil when disabled).
	flaps *resilience.Tracker

	logger *slog.Logger

	specStop chan struct{}
	specDone chan struct{}

	lnMu sync.Mutex
	ln   net.Listener
}

// remoteWorker is the coordinator's view of one connected worker.
type remoteWorker struct {
	id       int
	name     string
	addr     string
	capacity int
	conn     net.Conn

	// inflight holds tasks assigned but unanswered; its size is bounded by
	// capacity. started records each assignment's dispatch time for the
	// latency EWMA and the straggler scan. specs records which problem
	// specs this worker has received.
	inflight map[uint64]*task
	started  map[uint64]time.Time
	specs    map[string]bool

	// ewma is the exponentially weighted moving average of this worker's
	// per-evaluation latency in nanoseconds; 0 until the first result.
	ewma float64
	// suspect marks a worker the deadline reaper has taken a task from:
	// its connection is up but it stopped answering, so the scheduler
	// skips it — otherwise the reaped task would requeue straight back
	// onto the same stalled machine. Any decoded result clears it.
	suspect bool
	// redispatched counts speculative copies this worker received.
	redispatched int64

	// outbox + outCond (on Coordinator.mu) feed the writer goroutine, so
	// dispatching never blocks on a slow connection.
	outbox  []envelope
	outCond *sync.Cond
	gone    bool
	done    int64
}

// latencyOr returns the worker's EWMA latency, or fallback when it has no
// history yet.
func (w *remoteWorker) latencyOr(fallback float64) float64 {
	if w.ewma > 0 {
		return w.ewma
	}
	return fallback
}

// task is one coalition evaluation in flight through the scheduler.
type task struct {
	id      uint64
	session *Session
	coal    combin.Coalition

	// holders lists the workers currently evaluating this task — more than
	// one after a speculative re-dispatch. delivered marks a task whose
	// winning result already reached the caller, so late duplicates and
	// worker-death requeues know to leave it alone. speculated caps each
	// task at one speculative copy and specWorker records who received it
	// (for the win accounting). All guarded by Coordinator.mu.
	holders    []int
	delivered  bool
	speculated bool
	specWorker int

	once sync.Once
	ch   chan taskResult // buffered(1); delivered at most once
}

// dropHolder removes worker id from the task's holder list.
func (t *task) dropHolder(id int) {
	for i, h := range t.holders {
		if h == id {
			t.holders = append(t.holders[:i], t.holders[i+1:]...)
			return
		}
	}
}

type taskResult struct {
	u float64
	// fallback asks the caller to evaluate locally (fleet gone, worker
	// error, or coordinator shut down).
	fallback bool
}

func (t *task) deliver(r taskResult) {
	t.once.Do(func() { t.ch <- r })
}

// NewCoordinator builds an empty coordinator with default scheduling
// (latency-aware picking, speculation on); attach workers with Serve or
// Attach.
func NewCoordinator() *Coordinator {
	return NewCoordinatorWith(SchedulerConfig{})
}

// NewCoordinatorWith builds a coordinator with explicit scheduler tuning.
func NewCoordinatorWith(sched SchedulerConfig) *Coordinator {
	sched.fillDefaults()
	logger := sched.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	c := &Coordinator{
		sched:   sched,
		workers: make(map[int]*remoteWorker),
		logger:  logger,
	}
	if sched.FlapThreshold > 0 {
		c.flaps = resilience.NewTracker(resilience.TrackerConfig{
			Threshold:   sched.FlapThreshold,
			Window:      sched.FlapWindow,
			BasePenalty: sched.BenchBase,
			MaxPenalty:  sched.BenchMax,
		})
	}
	if !sched.DisableSpeculation || sched.TaskDeadline > 0 {
		c.specStop = make(chan struct{})
		c.specDone = make(chan struct{})
		go c.speculateLoop()
	}
	return c
}

// speculateLoop periodically re-examines the fleet for stragglers and —
// when a task deadline is configured — for hung assignments to reap; the
// scans themselves are cheap (a few map walks under the scheduler lock),
// so a short tick keeps tail latency low without measurable overhead.
func (c *Coordinator) speculateLoop() {
	defer close(c.specDone)
	t := time.NewTicker(c.sched.SpeculateTick)
	defer t.Stop()
	for {
		select {
		case <-c.specStop:
			return
		case <-t.C:
			c.mu.Lock()
			if c.sched.TaskDeadline > 0 {
				c.reapHungLocked()
			}
			if !c.sched.DisableSpeculation {
				c.speculateLocked()
			}
			c.mu.Unlock()
		}
	}
}

// Serve accepts worker connections on ln until the listener closes (Close
// closes it). Each accepted connection is handshaken and attached.
func (c *Coordinator) Serve(ln net.Listener) error {
	c.lnMu.Lock()
	c.ln = ln
	c.lnMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go func() {
			if err := c.Attach(conn); err != nil {
				conn.Close()
			}
		}()
	}
}

// Attach performs the registration handshake on conn and, on success, adds
// the worker to the fleet and services it until the connection breaks.
func (c *Coordinator) Attach(conn net.Conn) error {
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)
	var hello envelope
	if err := dec.Decode(&hello); err != nil {
		return fmt.Errorf("evalnet: worker handshake: %w", err)
	}
	if hello.Hello == nil || hello.Hello.Proto != protoVersion {
		return fmt.Errorf("evalnet: worker handshake: bad hello (proto %v)", hello.Hello)
	}
	// Flap quarantine: a name that keeps dying is refused before the ack,
	// so the worker sees a failed handshake and backs off (its dial retry
	// loop has jittered exponential backoff) instead of rejoining the
	// fleet only to take tasks down with it again.
	if c.flaps != nil {
		if left, benched := c.flaps.Benched(hello.Hello.Name); benched {
			c.mu.Lock()
			c.quarantineRejections++
			c.mu.Unlock()
			c.logger.Warn("worker attach refused: quarantined",
				"worker", hello.Hello.Name, "bench_remaining", left)
			return fmt.Errorf("evalnet: worker %q quarantined for %s after repeated losses",
				hello.Hello.Name, left.Round(time.Millisecond))
		}
	}
	capacity := hello.Hello.Capacity
	if capacity < 1 {
		capacity = 1
	}
	w := &remoteWorker{
		name:     hello.Hello.Name,
		addr:     conn.RemoteAddr().String(),
		capacity: capacity,
		conn:     conn,
		inflight: make(map[uint64]*task),
		started:  make(map[uint64]time.Time),
		specs:    make(map[string]bool),
	}
	if err := enc.Encode(envelope{Hello: &helloMsg{Proto: protoVersion, Name: "coordinator"}}); err != nil {
		return fmt.Errorf("evalnet: worker handshake ack: %w", err)
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("evalnet: coordinator closed")
	}
	w.id = c.nextWkr
	c.nextWkr++
	w.outCond = sync.NewCond(&c.mu)
	c.workers[w.id] = w
	// A fresh worker may unblock queued work immediately; with no queue,
	// the next speculateLoop tick can hand it a straggler's task.
	c.dispatchLocked()
	c.mu.Unlock()
	c.logger.Info("worker attached", "worker", w.name, "id", w.id, "addr", w.addr, "capacity", w.capacity)

	go c.writeLoop(w, enc)
	c.readLoop(w, dec)
	return nil
}

// writeLoop drains the worker's outbox; encoding happens outside the lock
// so a slow connection never stalls the scheduler.
func (c *Coordinator) writeLoop(w *remoteWorker, enc *gob.Encoder) {
	for {
		c.mu.Lock()
		for len(w.outbox) == 0 && !w.gone {
			w.outCond.Wait()
		}
		if w.gone && len(w.outbox) == 0 {
			c.mu.Unlock()
			return
		}
		msgs := w.outbox
		w.outbox = nil
		c.mu.Unlock()
		for _, m := range msgs {
			if m.warm != nil && m.Spec != nil {
				m.Spec.Warm = m.warm()
			}
			if err := enc.Encode(m); err != nil {
				c.removeWorker(w)
				return
			}
		}
	}
}

// readLoop consumes results until the connection breaks, then retires the
// worker and requeues whatever it still owed.
func (c *Coordinator) readLoop(w *remoteWorker, dec *gob.Decoder) {
	for {
		var e envelope
		if err := dec.Decode(&e); err != nil {
			c.removeWorker(w)
			return
		}
		if e.Result != nil {
			c.completeTask(w, *e.Result)
		}
	}
}

// completeTask delivers one worker result and refills the freed slot. A
// result for a task this worker no longer holds — retired with its
// session or requeued after a presumed death — is discarded without
// touching the accounting, as is a superseded duplicate, which is what
// keeps budgets and values bit-identical under re-dispatch. The losing
// copy of a speculated task keeps its in-flight slot until this reply
// arrives: the worker really is still training it, so freeing the slot
// earlier would oversubscribe the machine past its announced capacity.
func (c *Coordinator) completeTask(w *remoteWorker, res resultMsg) {
	c.mu.Lock()
	// Any decoded result proves the worker is alive and answering again;
	// lift the deadline reaper's suspicion so it is schedulable. If the
	// result itself is stale (the reaper already requeued its task, so the
	// inflight lookup below misses), the un-suspected worker still has free
	// slots pending work may be waiting on — dispatch explicitly, because
	// the miss path otherwise skips it.
	if w.suspect {
		w.suspect = false
		if _, stillHeld := w.inflight[res.TaskID]; !stillHeld {
			c.dispatchLocked()
		}
	}
	t, ok := w.inflight[res.TaskID]
	var deliver taskResult
	var observeRemote float64 // >0: report to the session's Observe hook after unlock
	var observeFn func(string, float64)
	if ok {
		if a := t.session.agg[w.id]; a != nil {
			// Every answered assignment counts toward the worker's dispatch
			// span — including superseded duplicates, which were real work on
			// that machine even though their result is discarded below.
			a.tasks++
			a.last = time.Now().UTC()
			a.evalNanos += res.Nanos
			switch {
			case res.Err != "":
				a.failed++
			case res.Warm:
				a.warm++
			default:
				a.fresh++
			}
		}
		delete(w.inflight, res.TaskID)
		var dispatchLat time.Duration
		if startedAt, has := w.started[res.TaskID]; has {
			delete(w.started, res.TaskID)
			dispatchLat = time.Since(startedAt)
			// Losing duplicates update the EWMA too: the straggler's
			// large sample is exactly the signal the scheduler needs.
			// Warm cache hits don't — they measure nothing about this
			// worker's training speed, and on a warm fleet they would
			// drag the EWMA so low that every real training reads as a
			// straggler and gets pointlessly duplicated.
			if res.Err == "" && !res.Warm {
				w.observeLatencyLocked(dispatchLat)
			}
		}
		t.dropHolder(w.id)
		switch {
		case t.delivered:
			// The losing copy of a speculated task: the winner already
			// answered. Discard uncounted; only the freed slot matters.
			ok = false
		case res.Err == "":
			w.done++
			t.delivered = true
			if t.speculated && w.id == t.specWorker {
				c.wins++ // the speculative copy beat the original
			}
			deliver = taskResult{u: res.U}
			if t.session.observe != nil && dispatchLat > 0 {
				observeFn, observeRemote = t.session.observe, dispatchLat.Seconds()
			}
		case len(t.holders) > 0:
			// This copy failed but a twin is still evaluating; let it
			// answer instead of falling back to local training. If the
			// *original* failed, the surviving speculative copy becomes
			// the de-facto original and regains the entitlement. If the
			// *speculative copy* failed, the entitlement stays spent —
			// resetting it would let a persistently erroring relief
			// worker (still in the fleet, unlike a dead one) be re-picked
			// every tick in a futile re-dispatch storm.
			if w.id != t.specWorker {
				t.speculated, t.specWorker = false, 0
			}
			ok = false
		default:
			deliver = taskResult{fallback: true}
		}
		c.dispatchLocked()
	}
	c.mu.Unlock()
	if observeFn != nil {
		observeFn("remote", observeRemote)
	}
	if !ok {
		return // stale or superseded: another copy owns the answer
	}
	t.deliver(deliver)
}

// observeLatencyLocked folds one evaluation latency into the worker's
// EWMA. A speculative copy's win is measured from its own dispatch, so a
// fast worker relieving a straggler is not charged the straggler's delay.
func (w *remoteWorker) observeLatencyLocked(d time.Duration) {
	sample := float64(d)
	if sample <= 0 {
		sample = 1
	}
	if w.ewma == 0 {
		w.ewma = sample
		return
	}
	w.ewma = ewmaAlpha*sample + (1-ewmaAlpha)*w.ewma
}

// removeWorker retires a dead connection: its unanswered tasks go back to
// the front of the queue (never lost, never double-delivered — the dead
// link can produce no more results once inflight is cleared). A task whose
// speculative twin is still alive on another worker is not requeued: the
// twin already owns it.
func (c *Coordinator) removeWorker(w *remoteWorker) {
	c.mu.Lock()
	if w.gone {
		c.mu.Unlock()
		return
	}
	w.gone = true
	delete(c.workers, w.id)
	// Record the loss for flap quarantine — but not during coordinator
	// shutdown, where every worker is deliberately disconnected and a
	// bench would punish the next daemon life's fleet for nothing.
	if c.flaps != nil && !c.closed {
		if benched, until := c.flaps.Fail(w.name); benched {
			c.logger.Warn("worker quarantined after repeated losses",
				"worker", w.name, "bench_until", until.UTC().Format(time.RFC3339))
		}
	}
	orphans := make([]*task, 0, len(w.inflight))
	for _, t := range w.inflight {
		t.dropHolder(w.id)
		if !t.delivered {
			// Back to square one whether this death orphaned the task
			// (requeued below, may straggle again on its next worker) or
			// killed one of its copies (the survivor may need relief
			// again): either way it regains its speculation entitlement.
			t.speculated, t.specWorker = false, 0
		}
		if t.delivered || len(t.holders) > 0 {
			continue
		}
		orphans = append(orphans, t)
	}
	w.inflight = make(map[uint64]*task)
	w.started = make(map[uint64]time.Time)
	c.requeues += int64(len(orphans))
	// One redispatch event per affected session, so a job trace shows the
	// death that rerouted its work without a span per orphaned coalition.
	perSession := make(map[*Session]int)
	for _, t := range orphans {
		perSession[t.session]++
	}
	for s, n := range perSession {
		s.trace.Event("redispatch", "daemon",
			"reason", "worker-death", "worker", w.name, "tasks", strconv.Itoa(n))
	}
	// Requeue in assignment order for determinism of the retry schedule.
	sort.Slice(orphans, func(a, b int) bool { return orphans[a].id < orphans[b].id })
	c.pending = append(orphans, c.pending...)
	c.dispatchLocked()
	w.outCond.Broadcast() // release the writer
	c.mu.Unlock()
	w.conn.Close()
	c.logger.Warn("worker lost", "worker", w.name, "id", w.id, "requeued", len(orphans))
}

// assignLocked records one task's assignment to a worker, shipping the
// spec the first time the worker sees it. The session's warm-start
// snapshot rides along, but is materialised lazily by the writer
// goroutine (envelope.warm) so copying a large cache never happens under
// the scheduler lock. The caller batches the actual task message.
func (c *Coordinator) assignLocked(w *remoteWorker, t *task) {
	sid := t.session.spec.ID
	if !w.specs[sid] {
		w.specs[sid] = true
		w.outbox = append(w.outbox, envelope{
			Spec: &specMsg{Spec: t.session.spec},
			warm: t.session.warmEntries,
		})
	}
	w.inflight[t.id] = t
	w.started[t.id] = time.Now()
	t.holders = append(t.holders, w.id)
	if t.session.agg != nil {
		a := t.session.agg[w.id]
		if a == nil {
			a = &dispatchStats{name: w.name, first: time.Now().UTC()}
			t.session.agg[w.id] = a
		}
	}
}

// batchKey groups task assignments headed for one (worker, spec) pair.
type batchKey struct {
	wid  int
	spec string
}

// batchSet accumulates task assignments and flushes them as one taskMsg
// per (worker, spec) — shared by queue dispatch and straggler
// re-dispatch so the outbox/Signal mechanics exist exactly once.
type batchSet struct {
	batches map[batchKey][]taskWire
	touched []*remoteWorker
}

func newBatchSet() *batchSet {
	return &batchSet{batches: make(map[batchKey][]taskWire)}
}

// add records one assignment of t to w.
func (b *batchSet) add(w *remoteWorker, t *task) {
	lo, hi := t.coal.Words()
	key := batchKey{w.id, t.session.spec.ID}
	if len(b.batches[key]) == 0 {
		b.touched = append(b.touched, w)
	}
	b.batches[key] = append(b.batches[key], taskWire{ID: t.id, Lo: lo, Hi: hi})
}

// flushLocked appends the accumulated task messages to the worker
// outboxes and wakes their writers. Caller holds c.mu.
func (b *batchSet) flushLocked(c *Coordinator) {
	for key, tasks := range b.batches {
		w := c.workers[key.wid]
		if w == nil {
			continue // raced with removeWorker; tasks were requeued there
		}
		w.outbox = append(w.outbox, envelope{Task: &taskMsg{SpecID: key.spec, Tasks: tasks}})
	}
	for _, w := range b.touched {
		w.outCond.Signal()
	}
}

// dispatchLocked assigns queued tasks to free slots, batching consecutive
// assignments to the same worker and spec into one taskMsg. With workers
// connected but saturated it leaves the queue alone; with no workers at
// all it hands every task back for local evaluation. Straggler
// re-dispatch is not done here — the speculateLoop ticker owns it, so
// the per-Eval hot path never pays for a fleet-wide scan.
func (c *Coordinator) dispatchLocked() {
	b := newBatchSet()
	for len(c.pending) > 0 {
		t := c.pending[0]
		if t.session.closed {
			c.pending = c.pending[1:]
			t.deliver(taskResult{fallback: true})
			continue
		}
		w := c.pickWorkerLocked()
		if w == nil {
			if len(c.workers) == 0 {
				c.pending = c.pending[1:]
				t.deliver(taskResult{fallback: true})
				continue
			}
			break // fleet saturated; completions re-dispatch
		}
		c.pending = c.pending[1:]
		c.assignLocked(w, t)
		b.add(w, t)
	}
	b.flushLocked(c)
}

// speculateLocked re-dispatches stragglers' in-flight tasks to idle
// workers. It only acts at the tail of a job — when the pending queue is
// empty — because earlier there is real work for every free slot. A task
// qualifies once its in-flight age exceeds the straggler threshold
// (SpeculateFactor × fleet EWMA, floored at SpeculateMinAge) and it has
// exactly one holder; the duplicate goes to the best idle worker other
// than the holder. First result wins, so a straggler that eventually
// answers is harmlessly discarded as stale.
func (c *Coordinator) speculateLocked() {
	if c.sched.DisableSpeculation || len(c.pending) > 0 || len(c.workers) < 2 {
		return
	}
	fleet := c.fleetEWMALocked()
	if fleet <= 0 {
		return // no latency history yet — nothing to judge stragglers by
	}
	threshold := time.Duration(c.sched.SpeculateFactor * fleet)
	if threshold < c.sched.SpeculateMinAge {
		threshold = c.sched.SpeculateMinAge
	}
	now := time.Now()

	b := newBatchSet()
	// unrelievable remembers victims whose only possible relief worker is
	// saturated (or is their own holder), so the scan moves on to younger
	// stragglers another free slot could still take instead of stalling
	// the whole pass on the oldest one.
	var unrelievable map[*task]bool
	for {
		// Oldest qualifying straggler task first.
		var (
			victim *task
			age    time.Duration
		)
		for _, w := range c.workers {
			for id, t := range w.inflight {
				if t.speculated || t.delivered || t.session.closed ||
					len(t.holders) != 1 || unrelievable[t] {
					continue
				}
				if a := now.Sub(w.started[id]); a > threshold && (victim == nil || a > age) {
					victim, age = t, a
				}
			}
		}
		if victim == nil {
			break // no relievable straggler left; flush what was assigned
		}
		dst := c.pickWorkerExceptLocked(victim.holders[0])
		if dst == nil {
			if unrelievable == nil {
				unrelievable = make(map[*task]bool)
			}
			unrelievable[victim] = true
			continue
		}
		from := ""
		if holder := c.workers[victim.holders[0]]; holder != nil {
			from = holder.name
		}
		victim.speculated = true
		victim.specWorker = dst.id
		dst.redispatched++
		c.redispatches++
		victim.session.trace.Event("redispatch", "daemon",
			"reason", "straggler", "from", from, "to", dst.name,
			"age_seconds", strconv.FormatFloat(age.Seconds(), 'g', 4, 64))
		c.logger.Debug("straggler re-dispatched",
			"job", victim.session.spec.ID, "from", from, "to", dst.name, "age", age)
		c.assignLocked(dst, victim)
		if a := victim.session.agg[dst.id]; a != nil {
			a.speculative++
		}
		b.add(dst, victim)
	}
	b.flushLocked(c)
}

// reapHungLocked forcibly requeues every assignment older than the task
// deadline. The straggler scan cannot rescue these: it needs idle
// capacity and latency history, while a stalled worker (SIGSTOP, wedged
// runtime) can sit on a saturated fleet's tasks forever with its
// connection alive. Reaping deletes the assignment, so the worker's
// eventual late result misses the inflight lookup in completeTask and is
// discarded uncounted — determinism is preserved. The worker itself is
// marked suspect and skipped by the scheduler until it answers again,
// so the reaped task cannot requeue straight back onto it.
func (c *Coordinator) reapHungLocked() {
	deadline := c.sched.TaskDeadline
	now := time.Now()
	var orphans []*task
	for _, w := range c.workers {
		for id, t := range w.inflight {
			if now.Sub(w.started[id]) <= deadline {
				continue
			}
			delete(w.inflight, id)
			delete(w.started, id)
			t.dropHolder(w.id)
			w.suspect = true
			if t.delivered {
				continue
			}
			// Back to square one: the reaped task regains its speculation
			// entitlement on whichever worker runs it next.
			t.speculated, t.specWorker = false, 0
			if len(t.holders) > 0 {
				continue // a speculative twin still owns it
			}
			orphans = append(orphans, t)
		}
	}
	if len(orphans) == 0 {
		return
	}
	c.deadlineRequeues += int64(len(orphans))
	perSession := make(map[*Session]int)
	for _, t := range orphans {
		perSession[t.session]++
	}
	for s, n := range perSession {
		s.trace.Event("redispatch", "daemon",
			"reason", "deadline", "tasks", strconv.Itoa(n))
	}
	sort.Slice(orphans, func(a, b int) bool { return orphans[a].id < orphans[b].id })
	c.pending = append(orphans, c.pending...)
	c.logger.Warn("hung evaluations reaped past task deadline",
		"tasks", len(orphans), "deadline", deadline)
	c.dispatchLocked()
}

// fleetEWMALocked returns the mean EWMA latency across workers with
// history, or 0 when no worker has answered anything yet.
func (c *Coordinator) fleetEWMALocked() float64 {
	var sum float64
	n := 0
	for _, w := range c.workers {
		if w.ewma > 0 {
			sum += w.ewma
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// pickWorkerLocked returns the worker expected to finish one more task
// soonest, or nil when every worker is saturated. Only workers with a
// free in-flight slot are considered, and a free slot starts the task
// immediately, so expected completion time is simply the worker's EWMA
// evaluation latency; workers with no latency history borrow the fleet
// average. Latency ties fall back to the load fraction
// inflight/capacity and then the lower worker id — so with no history
// anywhere the policy is exactly the static least-loaded one, and a
// uniform fleet schedules deterministically.
func (c *Coordinator) pickWorkerLocked() *remoteWorker {
	return c.pickWorkerExceptLocked(-1)
}

// pickWorkerExceptLocked is pickWorkerLocked skipping one worker id — the
// straggler a speculative copy must not return to.
func (c *Coordinator) pickWorkerExceptLocked(except int) *remoteWorker {
	fleet := c.fleetEWMALocked()
	var (
		best    *remoteWorker
		bestLat float64
	)
	for _, w := range c.workers {
		if w.id == except || w.suspect || len(w.inflight) >= w.capacity {
			continue
		}
		lat := w.latencyOr(fleet)
		if lat <= 0 {
			lat = 1 // unitless: equal latency everywhere → pure load balance
		}
		better := best == nil || lat < bestLat
		if !better && lat == bestLat {
			la, lb := len(w.inflight)*best.capacity, len(best.inflight)*w.capacity
			better = la < lb || (la == lb && w.id < best.id)
		}
		if better {
			best, bestLat = w, lat
		}
	}
	return best
}

// WorkerCount returns the number of connected workers.
func (c *Coordinator) WorkerCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}

// TotalCapacity returns the fleet's aggregate in-flight limit — the right
// size for an evaluation pool that keeps every worker busy.
func (c *Coordinator) TotalCapacity() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totalCapacityLocked()
}

func (c *Coordinator) totalCapacityLocked() int {
	total := 0
	for _, w := range c.workers {
		total += w.capacity
	}
	return total
}

// Workers snapshots the fleet for the daemon's /v1/workers endpoint.
func (c *Coordinator) Workers() []fedshap.WorkerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.workersLocked()
}

func (c *Coordinator) workersLocked() []fedshap.WorkerInfo {
	out := make([]fedshap.WorkerInfo, 0, len(c.workers))
	for _, w := range c.workers {
		flaps := 0
		if c.flaps != nil {
			flaps = c.flaps.Strikes(w.name)
		}
		out = append(out, fedshap.WorkerInfo{
			ID:           w.id,
			Name:         w.name,
			Addr:         w.addr,
			Capacity:     w.capacity,
			InFlight:     len(w.inflight),
			Completed:    w.done,
			EWMAMillis:   w.ewma / float64(time.Millisecond),
			Redispatched: w.redispatched,
			Flaps:        flaps,
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Stats snapshots the scheduler for the daemon's /metrics endpoint.
func (c *Coordinator) Stats() fedshap.FleetMetrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	var quarantined []string
	if c.flaps != nil {
		quarantined = c.flaps.BenchedKeys()
	}
	return fedshap.FleetMetrics{
		Workers:              c.workersLocked(),
		TotalCapacity:        c.totalCapacityLocked(),
		PendingTasks:         len(c.pending),
		Redispatches:         c.redispatches,
		RedispatchWins:       c.wins,
		Requeues:             c.requeues,
		DeadlineRequeues:     c.deadlineRequeues,
		Quarantined:          quarantined,
		QuarantineRejections: c.quarantineRejections,
	}
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
	c.mu.Lock()
	defer c.mu.Unlock()
	backlog := len(c.pending)
	for _, w := range c.workers {
		backlog += len(w.inflight)
	}
	if backlog == 0 {
		return 0
	}
	ewma := c.fleetEWMALocked()
	if ewma <= 0 {
		if n := len(c.workers); n > 0 {
			return n
		}
		return 1
	}
	meanCap := 1.0
	if n := len(c.workers); n > 0 {
		meanCap = float64(c.totalCapacityLocked()) / float64(n)
	}
	wanted := int(math.Ceil(float64(backlog) * ewma / float64(target) / meanCap))
	if wanted < 1 {
		wanted = 1
	}
	return wanted
}

// Close shuts the coordinator down: the listener stops accepting, the
// straggler scan stops, every worker connection is closed, and all queued
// work is handed back for local evaluation so no Eval caller blocks
// forever.
func (c *Coordinator) Close() error {
	c.lnMu.Lock()
	if c.ln != nil {
		c.ln.Close()
		c.ln = nil
	}
	c.lnMu.Unlock()

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	workers := make([]*remoteWorker, 0, len(c.workers))
	for _, w := range c.workers {
		workers = append(workers, w)
	}
	c.mu.Unlock()
	if c.specStop != nil {
		close(c.specStop)
		<-c.specDone
	}
	for _, w := range workers {
		c.removeWorker(w) // requeues in-flight work, then local fallback
	}
	return nil
}

// Session is one job's handle on the fleet. Its Eval method is the remote
// utility.EvalFunc plugged into the job's oracle; local is the in-process
// evaluation used as the fallback.
type Session struct {
	c     *Coordinator
	spec  ProblemSpec
	ctx   context.Context
	local utility.EvalFunc
	// warm snapshots the coordinator-side cached utilities for the spec,
	// shipped to each worker with its first spec message; nil disables
	// warm-start.
	warm func() map[combin.Coalition]float64
	// localSem bounds concurrent local fallback evaluations at the job's
	// own local limit: the pool is sized for the fleet's capacity, so
	// when the fleet vanishes mid-job the queued Evals must not all start
	// training on this machine at once.
	localSem chan struct{}

	// observe and trace are the job's telemetry hooks (see SessionConfig).
	observe func(source string, seconds float64)
	trace   *obs.Trace
	// agg accumulates one dispatch span per worker that served this
	// session, flushed into trace at Close. Guarded by c.mu.
	agg map[int]*dispatchStats

	// closed is guarded by c.mu.
	closed bool
	stop   chan struct{}
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
	// WarmSnapshot, when set, returns the coordinator-side cached
	// utilities for the spec (typically utility.Oracle.Snapshot after the
	// persistent store warmed it). Each worker receives the snapshot taken
	// at the moment its first task of this spec is dispatched, so a
	// recycled fleet never retrains what the daemon already knows.
	WarmSnapshot func() map[combin.Coalition]float64
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

// NewSessionWith registers a job with the coordinator. ctx is the job's
// context: when it is done, queued work is dropped, workers are told to
// skip the spec, and blocked Eval calls abort.
func (c *Coordinator) NewSessionWith(ctx context.Context, cfg SessionConfig) *Session {
	localLimit := cfg.LocalLimit
	if localLimit <= 0 {
		localLimit = runtime.GOMAXPROCS(0)
	}
	s := &Session{
		c: c, spec: cfg.Spec, ctx: ctx, local: cfg.Local, warm: cfg.WarmSnapshot,
		observe:  cfg.Observe,
		trace:    cfg.Trace,
		localSem: make(chan struct{}, localLimit),
		stop:     make(chan struct{}),
	}
	if s.trace != nil {
		s.agg = make(map[int]*dispatchStats)
	}
	// Push cancellation to the fleet as soon as it happens, not just when
	// the job's deferred Close runs: workers then skip the spec's queued
	// batches instead of training them into a void.
	go func() {
		select {
		case <-ctx.Done():
			s.c.cancelSpec(cfg.Spec.ID)
		case <-s.stop:
		}
	}()
	return s
}

// warmEntries materialises the session's warm snapshot for the wire.
func (s *Session) warmEntries() []warmEntry {
	if s.warm == nil {
		return nil
	}
	snap := s.warm()
	if len(snap) == 0 {
		return nil
	}
	out := make([]warmEntry, 0, len(snap))
	for coal, u := range snap {
		lo, hi := coal.Words()
		out = append(out, warmEntry{Lo: lo, Hi: hi, U: u})
	}
	return out
}

// Eval evaluates one coalition on the fleet, blocking until a result
// arrives. With no workers connected (or after coordinator shutdown) it
// evaluates locally. If the session context is cancelled while waiting it
// panics with *utility.CancelError — the oracle's cancellation contract,
// recovered by Prefetch and shapley.Run.
func (s *Session) Eval(coal combin.Coalition) float64 {
	if err := s.ctx.Err(); err != nil {
		panic(&utility.CancelError{Err: err})
	}
	t := s.c.enqueue(s, coal)
	if t == nil {
		return s.localEval(coal)
	}
	select {
	case r := <-t.ch:
		if r.fallback {
			return s.localEval(coal)
		}
		return r.u
	case <-s.ctx.Done():
		s.c.abandon(t)
		panic(&utility.CancelError{Err: s.ctx.Err()})
	}
}

// localEval runs the in-process fallback, bounded by the local machine's
// parallelism and aborting rather than training when the job is already
// cancelled (a worker's "spec cancelled" error reply can race ctx.Done in
// Eval's select).
func (s *Session) localEval(coal combin.Coalition) float64 {
	if err := s.ctx.Err(); err != nil {
		panic(&utility.CancelError{Err: err})
	}
	s.localSem <- struct{}{}
	defer func() { <-s.localSem }()
	return s.local(coal)
}

// enqueue queues one evaluation, or returns nil when the caller should
// evaluate locally (no fleet, closed session or coordinator).
func (c *Coordinator) enqueue(s *Session, coal combin.Coalition) *task {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || s.closed || len(c.workers) == 0 {
		return nil
	}
	c.nextTask++
	t := &task{id: c.nextTask, session: s, coal: coal, ch: make(chan taskResult, 1)}
	c.pending = append(c.pending, t)
	c.dispatchLocked()
	return t
}

// abandon forgets a task whose caller stopped waiting: dequeued if still
// pending; if already assigned, the eventual worker result is discarded by
// completeTask (the session is cancelled, so no new work follows it).
func (c *Coordinator) abandon(t *task) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, p := range c.pending {
		if p == t {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			break
		}
	}
}

// cancelSpec tells every worker that received the spec to drop it.
func (c *Coordinator) cancelSpec(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.workers {
		if w.specs[id] {
			w.outbox = append(w.outbox, envelope{Cancel: &cancelMsg{SpecID: id}})
			w.outCond.Signal()
		}
	}
}

// Close ends the session: its queued tasks fall back to local delivery,
// workers drop the spec, and the registration is removed. Idempotent.
func (s *Session) Close() {
	s.c.mu.Lock()
	if s.closed {
		s.c.mu.Unlock()
		return
	}
	s.closed = true
	close(s.stop)
	kept := s.c.pending[:0]
	for _, t := range s.c.pending {
		if t.session == s {
			t.deliver(taskResult{fallback: true})
			continue
		}
		kept = append(kept, t)
	}
	s.c.pending = kept
	for _, w := range s.c.workers {
		if w.specs[s.spec.ID] {
			w.outbox = append(w.outbox, envelope{Cancel: &cancelMsg{SpecID: s.spec.ID}})
			w.outCond.Signal()
		}
	}
	agg := s.agg
	s.agg = nil
	s.c.mu.Unlock()

	// Materialise the per-worker dispatch spans: one per worker that served
	// this job, carrying the worker-reported evaluation time merged from
	// its result messages. Done after unlock — the trace has its own lock.
	for _, a := range agg {
		end := a.last
		if end.IsZero() {
			end = a.first // assigned but never answered (e.g. worker died)
		}
		s.trace.Add(obs.Span{
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
}
