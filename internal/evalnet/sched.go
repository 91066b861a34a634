package evalnet

import (
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"fedshap"
	"fedshap/internal/combin"
)

// ewmaAlpha weights the latest latency sample in the per-worker EWMA.
const ewmaAlpha = 0.3

// The reasons a task changes hands: the "reason" attribute of the trace
// event, and for the two requeue reasons the key of their counter.
const (
	reasonDeath     = "worker-death"
	reasonDeadline  = "deadline"
	reasonStraggler = "straggler"
)

// scheduler is the coordinator's state machine: the queue of unassigned
// tasks, one slot per attached worker, and the rules that move a task
// between them. Its inputs are events that carry their own timestamp and
// its outputs are frames handed to a slot's outlet and results delivered
// on a task's channel; it touches no connection, encoder, goroutine or wall
// clock, so every rule is tested by replaying events (scheduler_test.go).
//
// mu guards every field of the scheduler, its slots and its tasks, and the
// closed/agg fields of the sessions queued on it. Methods without a
// "caller holds mu" note take it themselves.
type scheduler struct {
	cfg SchedulerConfig

	mu      sync.Mutex
	workers map[int]*slot
	// pending is the FIFO of unassigned tasks; requeues go to the front so
	// interrupted work finishes first.
	pending  []*task
	nextWkr  int
	nextTask uint64
	closed   bool

	// redispatches counts speculative task copies dispatched; wins counts
	// the copies that beat the original assignment to the result; requeued
	// counts, by reason, tasks put back because their worker died or sat
	// on them past the task deadline.
	redispatches int64
	wins         int64
	requeued     map[string]int64
}

func newScheduler(cfg SchedulerConfig) *scheduler {
	cfg.fillDefaults()
	return &scheduler{cfg: cfg, workers: make(map[int]*slot), requeued: make(map[string]int64)}
}

// outlet is a slot's way out to its worker. The link implements it over a
// connection; scheduler tests record the frames instead.
type outlet interface {
	// send queues one frame for the worker. It is called with the
	// scheduler lock held and must not block.
	send(envelope)
	// hangup closes the connection, releasing whatever serves it, and
	// reports whether this call was the one that did.
	hangup() bool
}

// assignment is one task held by one worker, stamped with its dispatch
// time for the latency EWMA, the straggler scan and the deadline reaper.
type assignment struct {
	task *task
	at   time.Time
}

// slot is the scheduler's record of one attached worker.
type slot struct {
	id       int
	name     string
	addr     string
	capacity int
	out      outlet

	// held maps task id to the assignments this worker has not answered;
	// its size is bounded by capacity. specs records which problem specs
	// the worker has been sent, until their session closes.
	held  map[uint64]assignment
	specs map[string]bool

	// ewma is the exponentially weighted moving average of this worker's
	// per-evaluation latency in nanoseconds; 0 until the first result.
	ewma float64
	// suspect marks a worker the deadline reaper has taken a task from:
	// its connection is up but it stopped answering, so the scheduler
	// skips it — otherwise the reaped task would requeue straight back
	// onto the same stalled machine. Any decoded result clears it.
	suspect bool
	// redispatched counts speculative copies this worker received; done
	// counts the results it delivered.
	redispatched int64
	done         int64
}

// observeLatency folds one evaluation latency into the worker's EWMA. A
// speculative copy's win is measured from its own dispatch, so a fast
// worker relieving a straggler is not charged the straggler's delay.
func (w *slot) observeLatency(d time.Duration) {
	sample := max(float64(d), 1)
	if w.ewma == 0 {
		w.ewma = sample
		return
	}
	w.ewma = ewmaAlpha*sample + (1-ewmaAlpha)*w.ewma
}

// unassign takes one assignment away from a worker that died or blew the
// task deadline, and reports whether that orphaned the task: undelivered,
// with no speculative twin still evaluating it. Orphaned or not, an
// undelivered task is back to square one — it may straggle again on its
// next worker, or its surviving copy may need relief again — so it regains
// its speculation entitlement.
func (w *slot) unassign(id uint64) (t *task, orphaned bool) {
	t = w.held[id].task
	delete(w.held, id)
	t.dropHolder(w.id)
	if t.delivered {
		return t, false
	}
	t.speculated, t.specWorker = false, 0
	return t, len(t.holders) == 0
}

// task is one coalition evaluation in flight through the scheduler.
type task struct {
	id      uint64
	session *Session
	coal    combin.Coalition

	// holders lists the workers currently evaluating this task — more than
	// one after a speculative re-dispatch. delivered marks a task whose
	// winning result already reached the caller, so late duplicates and
	// requeues know to leave it alone. speculated caps each task at one
	// speculative copy and specWorker records who received it (for the win
	// accounting).
	holders    []int
	delivered  bool
	speculated bool
	specWorker int

	once sync.Once
	ch   chan taskResult // buffered(1); delivered at most once
}

// dropHolder removes worker id from the task's holder list.
func (t *task) dropHolder(id int) {
	t.holders = slices.DeleteFunc(t.holders, func(h int) bool { return h == id })
}

type taskResult struct {
	u float64
	// remote is the coordinator-measured dispatch-to-result latency of a
	// fleet-served utility, for the session's Observe hook.
	remote time.Duration
	// fallback asks the caller to evaluate locally (fleet gone, worker
	// error, or coordinator shut down).
	fallback bool
}

// deliver never blocks, so the scheduler calls it with mu held.
func (t *task) deliver(r taskResult) {
	t.once.Do(func() { t.ch <- r })
}

// attach adds a worker to the fleet and hands it queued work; with no
// queue, the next tick can hand it a straggler's task. It returns nil once
// the scheduler is closed.
func (s *scheduler) attach(name, addr string, capacity int, out outlet, now time.Time) *slot {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	w := &slot{
		id: s.nextWkr, name: name, addr: addr, capacity: max(capacity, 1), out: out,
		held: make(map[uint64]assignment), specs: make(map[string]bool),
	}
	s.nextWkr++
	s.workers[w.id] = w
	s.dispatch(now)
	return w
}

// lost takes a worker out of the fleet: its unanswered tasks go back to
// the queue (never lost, never double-delivered — nothing the dead link
// still says finds an assignment). Reporting the same loss twice is a
// no-op: close loses every worker itself, and its link may notice too.
func (s *scheduler) lost(w *slot, now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.workers[w.id] != w {
		return
	}
	delete(s.workers, w.id)
	orphans := make([]*task, 0, len(w.held))
	for id := range w.held {
		if t, orphaned := w.unassign(id); orphaned {
			orphans = append(orphans, t)
		}
	}
	s.cfg.Logger.Warn("worker lost", "worker", w.name, "id", w.id, "requeued", len(orphans))
	s.requeue(reasonDeath, w.name, orphans, now)
}

// close stops the scheduler and loses every worker: with the fleet empty
// all queued work is handed back for local evaluation, so no Eval caller
// blocks forever. It returns the fleet for the caller to hang up on.
func (s *scheduler) close(now time.Time) []*slot {
	s.mu.Lock()
	s.closed = true
	fleet := make([]*slot, 0, len(s.workers))
	for _, w := range s.workers {
		fleet = append(fleet, w)
	}
	s.mu.Unlock()
	for _, w := range fleet {
		s.lost(w, now)
	}
	return fleet
}

// requeue is the one way tasks return to the queue: at the front, in
// assignment order so the retry schedule is deterministic, with one
// redispatch event per affected session — a job trace shows what rerouted
// its work without a span per orphaned coalition. worker names the dead
// holder; a deadline reap spans the fleet and names none. Caller holds mu.
func (s *scheduler) requeue(reason, worker string, orphans []*task, now time.Time) {
	s.requeued[reason] += int64(len(orphans))
	perSession := make(map[*Session]int)
	for _, t := range orphans {
		perSession[t.session]++
	}
	for sess, n := range perSession {
		attrs := []string{"tasks", strconv.Itoa(n)}
		if worker != "" {
			attrs = append(attrs, "worker", worker)
		}
		sess.redispatchEvent(reason, attrs...)
	}
	sort.Slice(orphans, func(a, b int) bool { return orphans[a].id < orphans[b].id })
	s.pending = append(orphans, s.pending...)
	s.dispatch(now)
}

// result takes one worker answer and refills the freed slot. An answer for
// a task this worker no longer holds — retired with its session or
// requeued after a presumed death — is discarded without touching the
// accounting, as is a superseded duplicate, which is what keeps budgets
// and values bit-identical under re-dispatch. The losing copy of a
// speculated task keeps its slot until this reply arrives: the worker
// really is still training it, so freeing the slot earlier would
// oversubscribe the machine past its announced capacity.
func (s *scheduler) result(w *slot, res resultMsg, now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Any decoded result proves the worker is alive and answering again, so
	// the reaper's suspicion lifts. If the result itself is stale (the
	// reaper already requeued its task), the worker's free slots may be
	// what pending work is waiting on: dispatch before discarding it.
	wasSuspect := w.suspect
	w.suspect = false
	a, held := w.held[res.TaskID]
	if !held {
		if wasSuspect {
			s.dispatch(now)
		}
		return
	}
	t := a.task
	// A non-finite utility is a failed evaluation however it got on the
	// wire: cached, it would turn every value of the job into NaN.
	failed := res.Err != "" || math.IsNaN(res.U) || math.IsInf(res.U, 0)
	latency := now.Sub(a.at)
	if d := t.session.agg[w.id]; d != nil {
		// Every answered assignment counts toward the worker's dispatch
		// span — including superseded duplicates, which were real work on
		// that machine even though their result is discarded below.
		d.tasks++
		d.last = now.UTC()
		d.evalNanos += res.Nanos
		switch {
		case failed:
			d.failed++
		case res.Warm:
			d.warm++
		default:
			d.fresh++
		}
	}
	delete(w.held, res.TaskID)
	t.dropHolder(w.id)
	// Losing duplicates update the EWMA too: the straggler's large sample
	// is exactly the signal the scheduler needs. Warm cache hits don't —
	// they measure nothing about this worker's training speed, and on a
	// warm fleet they would drag the EWMA so low that every real training
	// reads as a straggler and gets pointlessly duplicated.
	if !failed && !res.Warm {
		w.observeLatency(latency)
	}
	switch {
	case t.delivered:
		// The losing copy of a speculated task: the winner already
		// answered. Discard uncounted; only the freed slot matters.
	case !failed:
		w.done++
		t.delivered = true
		if t.speculated && w.id == t.specWorker {
			s.wins++ // the speculative copy beat the original
		}
		t.deliver(taskResult{u: res.U, remote: latency})
	case len(t.holders) > 0:
		// This copy failed but a twin is still evaluating; let it answer
		// instead of falling back to local training. If the *original*
		// failed, the surviving speculative copy becomes the de-facto
		// original and regains the entitlement. If the *speculative copy*
		// failed, the entitlement stays spent — resetting it would let a
		// persistently erroring relief worker (still in the fleet, unlike
		// a dead one) be re-picked every tick in a futile re-dispatch
		// storm.
		if w.id != t.specWorker {
			t.speculated, t.specWorker = false, 0
		}
	default:
		t.deliver(taskResult{fallback: true})
	}
	s.dispatch(now)
}

// tick runs the periodic scans: the deadline reaper when a task deadline
// is configured, then the straggler scan unless speculation is off. Both
// are a few map walks, so a short tick keeps tail latency low without
// measurable overhead.
func (s *scheduler) tick(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.TaskDeadline > 0 {
		s.reap(now)
	}
	if !s.cfg.DisableSpeculation {
		s.speculate(now)
	}
}

// batch accumulates task assignments and flushes them as one taskMsg per
// (worker, spec).
type batch map[batchKey][]taskWire

type batchKey struct {
	w    *slot
	spec string
}

func (b batch) flush() {
	for key, tasks := range b {
		key.w.out.send(envelope{Task: &taskMsg{SpecID: key.spec, Tasks: tasks}})
	}
}

// assign records one task's assignment to a worker and adds it to the
// batch, shipping the spec at once the first time the worker sees it.
// Caller holds mu.
func (s *scheduler) assign(w *slot, t *task, b batch, now time.Time) {
	sess := t.session
	if !w.specs[sess.cfg.Spec.ID] {
		w.specs[sess.cfg.Spec.ID] = true
		w.out.send(envelope{Spec: &sess.cfg.Spec})
	}
	w.held[t.id] = assignment{task: t, at: now}
	t.holders = append(t.holders, w.id)
	if sess.agg != nil && sess.agg[w.id] == nil {
		sess.agg[w.id] = &dispatchStats{name: w.name, first: now.UTC()}
	}
	lo, hi := t.coal.Words()
	key := batchKey{w, sess.cfg.Spec.ID}
	b[key] = append(b[key], taskWire{ID: t.id, Lo: lo, Hi: hi})
}

// dispatch assigns queued tasks to free slots. With workers connected but
// saturated it leaves the queue alone; a task whose session closed, or
// that finds no fleet at all, is handed back for local evaluation.
// Straggler re-dispatch is not done here — tick owns it, so the per-Eval
// hot path never pays for a fleet-wide scan. Caller holds mu.
func (s *scheduler) dispatch(now time.Time) {
	b := batch{}
	for len(s.pending) > 0 {
		t := s.pending[0]
		var w *slot
		if !t.session.closed {
			if w = s.pick(nil); w == nil && len(s.workers) > 0 {
				break // fleet saturated; completions re-dispatch
			}
		}
		s.pending = s.pending[1:]
		if w == nil {
			t.deliver(taskResult{fallback: true})
			continue
		}
		s.assign(w, t, b, now)
	}
	b.flush()
}

// speculate re-dispatches stragglers' in-flight tasks to idle workers. It
// only acts at the tail of a job — when the pending queue is empty —
// because earlier there is real work for every free slot. A task
// qualifies once its in-flight age exceeds the straggler threshold
// (SpeculateFactor × fleet EWMA, floored at SpeculateMinAge) and it has
// exactly one holder; the duplicate goes to the best idle worker other
// than the holder. First result wins, so a straggler that eventually
// answers is harmlessly discarded as stale. Caller holds mu.
func (s *scheduler) speculate(now time.Time) {
	if len(s.pending) > 0 || len(s.workers) < 2 {
		return
	}
	fleet := s.fleetEWMA()
	if fleet <= 0 {
		return // no latency history yet — nothing to judge stragglers by
	}
	threshold := max(time.Duration(s.cfg.SpeculateFactor*fleet), s.cfg.SpeculateMinAge)

	type straggler struct {
		assignment
		from *slot
	}
	var victims []straggler
	for _, w := range s.workers {
		for _, a := range w.held {
			if t := a.task; now.Sub(a.at) > threshold && !t.speculated && !t.delivered &&
				!t.session.closed && len(t.holders) == 1 {
				victims = append(victims, straggler{a, w})
			}
		}
	}
	// Oldest straggler first; task id settles ties.
	sort.Slice(victims, func(i, j int) bool {
		vi, vj := victims[i], victims[j]
		if vi.at.Equal(vj.at) {
			return vi.task.id < vj.task.id
		}
		return vi.at.Before(vj.at)
	})
	b := batch{}
	for _, v := range victims {
		victim, from, age := v.task, v.from, now.Sub(v.at)
		dst := s.pick(from)
		if dst == nil {
			// Its only possible relief is saturated or is its own holder:
			// pass on to younger stragglers another free slot could still
			// take instead of ending the scan on the oldest one.
			continue
		}
		victim.speculated, victim.specWorker = true, dst.id
		dst.redispatched++
		s.redispatches++
		victim.session.redispatchEvent(reasonStraggler, "from", from.name, "to", dst.name,
			"age_seconds", strconv.FormatFloat(age.Seconds(), 'g', 4, 64))
		s.cfg.Logger.Debug("straggler re-dispatched",
			"job", victim.session.cfg.Spec.ID, "from", from.name, "to", dst.name, "age", age)
		s.assign(dst, victim, b, now)
		if d := victim.session.agg[dst.id]; d != nil {
			d.speculative++
		}
	}
	b.flush()
}

// reap forcibly requeues every assignment older than the task deadline.
// The straggler scan cannot rescue these: it needs idle capacity and
// latency history, while a stalled worker (SIGSTOP, wedged runtime) can
// sit on a saturated fleet's tasks forever with its connection alive.
// Reaping deletes the assignment, so the worker's eventual late result
// finds nothing in result and is discarded uncounted — determinism is
// preserved. The worker itself is marked suspect and skipped by the
// scheduler until it answers again, so the reaped task cannot requeue
// straight back onto it. Caller holds mu.
func (s *scheduler) reap(now time.Time) {
	var orphans []*task
	for _, w := range s.workers {
		for id, a := range w.held {
			if now.Sub(a.at) <= s.cfg.TaskDeadline {
				continue
			}
			w.suspect = true
			if t, orphaned := w.unassign(id); orphaned {
				orphans = append(orphans, t)
			}
		}
	}
	if len(orphans) == 0 {
		return
	}
	s.cfg.Logger.Warn("hung evaluations reaped past task deadline",
		"tasks", len(orphans), "deadline", s.cfg.TaskDeadline)
	s.requeue(reasonDeadline, "", orphans, now)
}

// fleetEWMA returns the mean EWMA latency across workers with history, or
// 0 when no worker has answered anything yet. Caller holds mu.
func (s *scheduler) fleetEWMA() float64 {
	var sum float64
	n := 0
	for _, w := range s.workers {
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

// pick returns the worker expected to finish one more task soonest, or nil
// when every worker is saturated; except is the straggler a speculative
// copy must not return to. Only workers with a free slot are considered,
// and a free slot starts the task immediately, so expected completion time
// is simply the worker's EWMA evaluation latency; workers with no latency
// history borrow the fleet average. Latency ties fall back to the load
// fraction held/capacity and then the lower worker id — so with no history
// anywhere the policy is exactly the static least-loaded one, and a
// uniform fleet schedules deterministically. Caller holds mu.
func (s *scheduler) pick(except *slot) *slot {
	fleet := s.fleetEWMA()
	var (
		best    *slot
		bestLat float64
	)
	for _, w := range s.workers {
		if w == except || w.suspect || len(w.held) >= w.capacity {
			continue
		}
		lat := w.ewma
		if lat <= 0 {
			lat = fleet
		}
		if lat <= 0 {
			lat = 1 // unitless: equal latency everywhere → pure load balance
		}
		better := best == nil || lat < bestLat
		if !better && lat == bestLat {
			la, lb := len(w.held)*best.capacity, len(best.held)*w.capacity
			better = la < lb || (la == lb && w.id < best.id)
		}
		if better {
			best, bestLat = w, lat
		}
	}
	return best
}

// enqueue queues one evaluation, or returns nil when the caller should
// evaluate locally (no fleet, closed session or scheduler).
func (s *scheduler) enqueue(sess *Session, coal combin.Coalition, now time.Time) *task {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || sess.closed || len(s.workers) == 0 {
		return nil
	}
	s.nextTask++
	t := &task{id: s.nextTask, session: sess, coal: coal, ch: make(chan taskResult, 1)}
	s.pending = append(s.pending, t)
	s.dispatch(now)
	return t
}

// cancel tells the fleet a session's work is no longer wanted: its queued
// tasks are handed back to their callers (who find the job cancelled, or
// evaluate locally) and every worker that was sent the spec is told to
// drop it. It runs as soon as the job is cancelled, so workers skip the
// spec's queued batches instead of training them into a void, and again,
// final, when the session closes: nothing more is assigned for it, its
// dispatch aggregates are returned, and the record of who has the spec is
// erased — a long-lived fleet must not remember every job it ever served.
// Not before: while the session can still assign, forgetting would ship
// the spec a second time.
func (s *scheduler) cancel(sess *Session, final bool) (agg map[int]*dispatchStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if final {
		sess.closed = true
		agg, sess.agg = sess.agg, nil
	}
	kept := s.pending[:0]
	for _, t := range s.pending {
		if t.session == sess {
			t.deliver(taskResult{fallback: true})
			continue
		}
		kept = append(kept, t)
	}
	s.pending = kept
	for _, w := range s.workers {
		if !w.specs[sess.cfg.Spec.ID] {
			continue
		}
		w.out.send(envelope{Cancel: &cancelMsg{SpecID: sess.cfg.Spec.ID}})
		if final {
			delete(w.specs, sess.cfg.Spec.ID)
		}
	}
	return agg
}

// stats snapshots the queue, the counters and the fleet (workers in id
// order); the coordinator adds what it knows about quarantine.
func (s *scheduler) stats() fedshap.FleetMetrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := fedshap.FleetMetrics{
		Workers:          make([]fedshap.WorkerInfo, 0, len(s.workers)),
		PendingTasks:     len(s.pending),
		Redispatches:     s.redispatches,
		RedispatchWins:   s.wins,
		Requeues:         s.requeued[reasonDeath],
		DeadlineRequeues: s.requeued[reasonDeadline],
	}
	for _, w := range s.workers {
		m.TotalCapacity += w.capacity
		m.Workers = append(m.Workers, fedshap.WorkerInfo{
			ID:           w.id,
			Name:         w.name,
			Addr:         w.addr,
			Capacity:     w.capacity,
			InFlight:     len(w.held),
			Completed:    w.done,
			EWMAMillis:   w.ewma / float64(time.Millisecond),
			Redispatched: w.redispatched,
		})
	}
	sort.Slice(m.Workers, func(a, b int) bool { return m.Workers[a].ID < m.Workers[b].ID })
	return m
}
