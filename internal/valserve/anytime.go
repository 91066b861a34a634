package valserve

import (
	"fmt"
	"time"

	"fedshap"
	"fedshap/internal/combin"
	"fedshap/internal/shapley"
)

// anytimeChunk is the number of planned coalitions evaluated between
// early-stop checks in plan-driven anytime execution. It is a fixed
// constant — deliberately independent of the job's evaluation pool width —
// so the plan position where the stopping criterion fires (and therefore
// the reported values) is identical whether the chunk was evaluated by one
// worker or thirty. Within a chunk, evaluation order doesn't matter: the
// tracker is fed in plan order after the whole chunk is in the cache.
const anytimeChunk = 8

// defaultValuesEvery throttles interim values events on the SSE stream: at
// most one snapshot per interval per job, plus an unthrottled final one.
// Snapshots are derived state the next one (or the final report)
// supersedes, so dropping intermediate ones is harmless.
const defaultValuesEvery = 100 * time.Millisecond

// anytimeState is one job's anytime-valuation bookkeeping: a Replay
// folding evaluated coalitions into confidence intervals, plus the
// publication throttle for interim values events. The job's views
// (jobView) fold every coalition the first time one of them reads it, on
// the job's run goroutine. What they read depends on the algorithm:
//
//   - Plan-driven (algorithms where PlanExhaustive holds): drivePlan
//     evaluates the complete plan in fixed-size chunks and reads each chunk
//     back in plan order, and can stop the job early once every pairwise
//     ranking is resolved. The fold sequence is a pure function of the
//     plan, so estimates, intervals and the stop position are
//     bit-identical across worker counts. A reduction after a completed
//     drive requests only folded coalitions, so it adds nothing.
//
//   - Everything else: the reduction's requests, warm from the store or
//     freshly trained, are folded in request order. That order is a pure
//     function of the seed too, so a warm resubmit reports the intervals
//     of its cold run at any worker count. Without a complete plan the
//     tracker cannot tell pruned strata from unvisited ones, so such a job
//     never stops early — it only reports.
type anytimeState struct {
	m     *Manager
	j     *Job
	names []string

	rp      *shapley.Replay
	lastPub time.Time
}

// newAnytimeState builds the state for a job's plan, or for a job whose
// algorithm has no complete plan when plan is nil.
func newAnytimeState(m *Manager, j *Job, n int, confidence float64, plan []combin.Coalition) *anytimeState {
	return &anytimeState{
		m:     m,
		j:     j,
		names: clientNames(n),
		rp:    shapley.NewReplay(n, confidence, plan),
	}
}

// interim renders the current Replay state as the wire snapshot.
func (a *anytimeState) interim() *fedshap.InterimValues {
	snap := a.rp.Snapshot()
	return &fedshap.InterimValues{
		JobID:             a.j.snapshot().ID,
		Names:             a.names,
		Values:            snap.Values,
		CILow:             snap.Lo,
		CIHigh:            snap.Hi,
		Confidence:        a.j.snapshot().Request.Confidence,
		Observations:      snap.Observations,
		SeenCoalitions:    snap.Seen,
		PlannedCoalitions: snap.Planned,
		Resolved:          snap.Resolved,
		At:                time.Now().UTC(),
	}
}

// publish emits a values event to the job's SSE subscribers, throttled
// unless force. Values events go straight to the hub — never through
// j.notify — so they are not journaled: they are high-churn derived state
// the final report supersedes.
func (a *anytimeState) publish(force bool) {
	now := time.Now()
	if !force && now.Sub(a.lastPub) < defaultValuesEvery {
		return
	}
	a.lastPub = now
	iv := a.interim()
	a.m.hub.publish(iv.JobID, Event{Type: EventValues, Values: iv})
	a.m.tel.valuesSnapshots.Inc()
}

// drivePlan executes the algorithm's complete evaluation plan through the
// job's pool in fixed-size chunks, reading each chunk back in plan order
// through a jobView over its own budget scope, which folds it into the
// tracker and publishes interim snapshots. With rank_stop set it returns
// stopped=true as soon as every pairwise ranking is resolved at the
// requested confidence — at a chunk boundary, so the stop position is
// worker-count invariant. Without rank_stop it simply warms the entire plan
// (the algorithm then reduces against a fully warm cache, exactly like the
// prefetch path it replaces) while streaming confidence intervals.
func (r *run) drivePlan(plan []combin.Coalition) (stopped bool, err error) {
	view := r.view()
	for off := 0; off < len(plan); off += anytimeChunk {
		chunk := plan[off:min(off+anytimeChunk, len(plan))]
		if err := r.oracle.Prefetch(r.ctx, chunk, r.workers); err != nil {
			return false, err
		}
		for _, s := range chunk {
			view.U(s)
		}
		if r.req.RankStop && r.any.rp.Tracker().Resolved() {
			r.any.publish(true)
			return true, nil
		}
	}
	return false, nil
}

// report assembles the early-stopped job's final report: the tracker
// estimates ARE the reported values — the algorithm's own reduction never
// ran — together with the intervals certifying the ranking and the unspent
// budget the stop saved.
func (a *anytimeState) report(algName string, budget int, evals int, seconds float64) *fedshap.Report {
	snap := a.rp.Snapshot()
	return &fedshap.Report{
		Algorithm:     algName,
		Values:        snap.Values,
		Names:         a.names,
		Seconds:       seconds,
		Evaluations:   evals,
		Confidence:    a.j.snapshot().Request.Confidence,
		AnytimeValues: snap.Values,
		CILow:         snap.Lo,
		CIHigh:        snap.Hi,
		EarlyStopped:  true,
		BudgetUnspent: max(budget-snap.Seen, 0),
	}
}

// decorate attaches the anytime view to a normally-completed report: the
// algorithm's own values stay authoritative (bit-identical to a run
// without anytime tracking), and the tracker's estimates and intervals
// ride along for consumers that want uncertainty.
func (a *anytimeState) decorate(rep *fedshap.Report) {
	snap := a.rp.Snapshot()
	// The stream's last word should match the report, so the final
	// snapshot is published unthrottled before the terminal event closes
	// the subscribers.
	a.publish(true)
	rep.Confidence = a.j.snapshot().Request.Confidence
	rep.AnytimeValues = snap.Values
	rep.CILow = snap.Lo
	rep.CIHigh = snap.Hi
}

// clientNames are the display names of clients 0..n-1, shared by reports
// and interim snapshots.
func clientNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("client-%d", i)
	}
	return names
}
