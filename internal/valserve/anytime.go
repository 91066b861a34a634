package valserve

import (
	"context"
	"fmt"
	"time"

	"fedshap"
	"fedshap/internal/combin"
	"fedshap/internal/shapley"
	"fedshap/internal/utility"
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
// publication throttle for interim values events. Every fold runs on the
// job's run goroutine. Two execution modes share it:
//
//   - Plan-driven (algorithms where PlanExhaustive holds): drivePlan
//     evaluates the complete plan in fixed-size chunks, folds each chunk in
//     plan order, and can stop the job early once every pairwise ranking is
//     resolved. The fold sequence is a pure function of the plan, so
//     estimates, intervals and the stop position are bit-identical across
//     worker counts.
//
//   - Observer (everything else): the algorithm's reduction runs in an
//     observedView, which folds every distinct coalition the run requests,
//     warm from the store or freshly trained, in request order. That order
//     is a pure function of the seed too, so a warm resubmit reports the
//     intervals of its cold run at any worker count. Without a complete
//     plan the tracker cannot tell pruned strata from unvisited ones, so
//     this mode never stops a job — it only reports.
type anytimeState struct {
	m        *Manager
	j        *Job
	names    []string
	observer bool

	rp      *shapley.Replay
	lastPub time.Time
}

// newAnytimeState builds the plan-driven state for a plan, or the observer
// state for a nil one.
func newAnytimeState(m *Manager, j *Job, n int, confidence float64, plan []combin.Coalition) *anytimeState {
	return &anytimeState{
		m:        m,
		j:        j,
		names:    clientNames(n),
		observer: plan == nil,
		rp:       shapley.NewReplay(n, confidence, plan),
	}
}

// observedView is the observer-mode budget scope: a RunView that folds each
// coalition into the tracker the first time the run requests it. N, Cached,
// Evals and SetContext are the RunView's own, so cancellation still reaches
// the oracle.
type observedView struct {
	*utility.RunView
	a *anytimeState
}

// U implements utility.Source.
func (v observedView) U(s combin.Coalition) float64 {
	first := !v.Cached(s)
	u := v.RunView.U(s)
	if first {
		v.a.rp.Add(s, u)
		v.a.publish(false)
	}
	return u
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
// job's pool in fixed-size chunks, folding each chunk into the tracker in
// plan order and publishing interim snapshots. With rankStop set it
// returns stopped=true as soon as every pairwise ranking is resolved at
// the requested confidence — at a chunk boundary, so the stop position is
// worker-count invariant. Without rankStop it simply warms the entire plan
// (the algorithm then reduces against a fully warm cache, exactly like the
// prefetch path it replaces) while streaming confidence intervals.
func (a *anytimeState) drivePlan(ctx context.Context, oracle *utility.Oracle, plan []combin.Coalition, workers int, rankStop bool) (stopped bool, err error) {
	for off := 0; off < len(plan); off += anytimeChunk {
		chunk := plan[off:min(off+anytimeChunk, len(plan))]
		us, err := oracle.EvalBatch(ctx, chunk, workers)
		if err != nil {
			return false, err
		}
		for i, s := range chunk {
			a.rp.Add(s, us[i])
		}
		resolved := rankStop && a.rp.Tracker().Resolved()
		a.publish(resolved)
		if resolved {
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
