package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Percentiles summarises a latency population in seconds. The quantile
// estimator is the nearest-rank method over the sorted sample — simple,
// deterministic, and exact for the population sizes a load run produces.
type Percentiles struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50_seconds"`
	P95   float64 `json:"p95_seconds"`
	P99   float64 `json:"p99_seconds"`
	Max   float64 `json:"max_seconds"`
	Mean  float64 `json:"mean_seconds"`
}

// percentilesOf computes the summary of a duration sample. An empty
// sample yields the zero value.
func percentilesOf(durations []time.Duration) Percentiles {
	if len(durations) == 0 {
		return Percentiles{}
	}
	sorted := make([]time.Duration, len(durations))
	copy(sorted, durations)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	rank := func(p float64) float64 {
		i := int(p*float64(len(sorted))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i].Seconds()
	}
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	return Percentiles{
		Count: len(sorted),
		P50:   rank(0.50),
		P95:   rank(0.95),
		P99:   rank(0.99),
		Max:   sorted[len(sorted)-1].Seconds(),
		Mean:  sum.Seconds() / float64(len(sorted)),
	}
}

// WatcherStats summarises the SSE watcher pool's view of the run.
type WatcherStats struct {
	// Jobs is the number of jobs the pool watched to a terminal state.
	Jobs int `json:"jobs"`
	// Events counts every SSE notification the watchers received.
	Events int64 `json:"events"`
	// Resumes counts watches that fell back to polling after the event
	// stream broke permanently (e.g. across a daemon SIGKILL) — the jobs
	// still reached a terminal state, just without a live stream.
	Resumes int64 `json:"polling_fallbacks"`
}

// ChaosReport records the faults a chaos run injected and the invariant
// verdicts measured afterwards. Invariant fields are nil until checked.
type ChaosReport struct {
	// DaemonKills / WorkerKills / Partitions count induced faults.
	DaemonKills int `json:"daemon_kills"`
	WorkerKills int `json:"worker_kills"`
	Partitions  int `json:"partitions"`
	// DiskFulls / Stalls / Flaps count the resilience faults: persistence
	// write failures forced via the daemon's fault file, workers SIGSTOPped
	// past the task deadline, and workers killed repeatedly to trip the
	// flap quarantine.
	DiskFulls int `json:"disk_fulls"`
	Stalls    int `json:"stalls"`
	Flaps     int `json:"flaps"`
	// KillsWithInflight counts worker kills that verifiably interrupted
	// in-flight evaluations (the kills the redispatch invariant covers);
	// StallsWithInflight the same for SIGSTOPped workers (the stalls the
	// deadline invariant covers).
	KillsWithInflight  int `json:"kills_with_inflight"`
	StallsWithInflight int `json:"stalls_with_inflight"`
	// DegradedObserved / DegradedRecovered / DegradedCanariesDone track
	// each disk-full fault: the degraded gauge seen at 1, seen back at 0
	// after the fault cleared, and the canary job submitted inside the
	// degraded window reaching done.
	DegradedObserved     int `json:"degraded_observed"`
	DegradedRecovered    int `json:"degraded_recovered"`
	DegradedCanariesDone int `json:"degraded_canaries_done"`
	// QuarantinesObserved counts flap faults whose victim was seen on the
	// quarantine bench.
	QuarantinesObserved int `json:"quarantines_observed"`
	// ObservedDeathRequeues is the cumulative
	// fedvald_fleet_redispatch_total{reason="worker-death"} across every
	// daemon life of the run; ObservedDeadlineRequeues and
	// ObservedQuarantineRejections accumulate the task-deadline and
	// quarantine counters the same way.
	ObservedDeathRequeues        int64 `json:"observed_death_requeues"`
	ObservedDeadlineRequeues     int64 `json:"observed_deadline_requeues"`
	ObservedQuarantineRejections int64 `json:"observed_quarantine_rejections"`
	// Invariants lists each checked invariant with its verdict.
	Invariants []InvariantResult `json:"invariants"`
}

// InvariantResult is one checked system invariant.
type InvariantResult struct {
	// Name identifies the invariant: all-terminal, replay-zero-fresh,
	// control-bit-identical, redispatch-accounting, deadline-enforced,
	// quarantine-accounting, degraded-mode-recovery.
	Name string `json:"name"`
	// OK reports whether the invariant held.
	OK bool `json:"ok"`
	// Detail explains a violation (or carries a measurement note).
	Detail string `json:"detail,omitempty"`
}

// Violations returns the failed invariants.
func (c *ChaosReport) Violations() []InvariantResult {
	var out []InvariantResult
	for _, inv := range c.Invariants {
		if !inv.OK {
			out = append(out, inv)
		}
	}
	return out
}

// Report is the outcome of one load run: population counts, latency
// percentiles, throughput, cache effectiveness, the watcher pool's view,
// and (for chaos runs) the fault log and invariant verdicts.
type Report struct {
	// Jobs is the number of submissions attempted; Submitted of those
	// accepted by the daemon (after queue-full retries).
	Jobs      int `json:"jobs"`
	Submitted int `json:"submitted"`
	// Done/Failed/Cancelled/TimedOut partition the terminal states
	// observed.
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
	TimedOut  int `json:"timed_out"`
	// Rejected429s counts submissions the daemon shed with HTTP 429
	// before eventually accepting them — nonzero under queue saturation,
	// it measures how hard admission control worked during the run.
	Rejected429s int64 `json:"rejected_429s"`
	// Fingerprints is the number of distinct problem fingerprints the
	// traffic spread across; WarmResubmits the submissions that repeated
	// an earlier request verbatim (exercising the persistent store).
	Fingerprints  int `json:"fingerprints"`
	WarmResubmits int `json:"warm_resubmits"`
	// WallSeconds is the end-to-end run time, submission of the first job
	// to the last terminal state; Throughput is jobs completed per second
	// of wall time.
	WallSeconds float64 `json:"wall_seconds"`
	Throughput  float64 `json:"throughput_jobs_per_sec"`
	// SubmitLatency measures the submission round trip (batch latency is
	// attributed to each job in the batch), QueueWait the span from
	// submission to pickup by a pool worker, JobLatency submission to
	// terminal state.
	SubmitLatency Percentiles `json:"submit_latency"`
	QueueWait     Percentiles `json:"queue_wait"`
	JobLatency    Percentiles `json:"job_latency"`
	// FreshEvals / WarmedCoalitions sum the terminal statuses' counters.
	FreshEvals       int64 `json:"fresh_evals"`
	WarmedCoalitions int64 `json:"warmed_coalitions"`
	// Watchers is the SSE watcher pool summary.
	Watchers WatcherStats `json:"watchers"`
	// Metrics is the daemon's last successful /metrics scrape, keyed as
	// obs.SeriesKey spells a series (nil if no scrape succeeded).
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Chaos is nil for plain load runs.
	Chaos *ChaosReport `json:"chaos,omitempty"`
}

// WriteJSON pretty-prints the report.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Summary renders a terse human-readable digest.
func (r *Report) Summary() string {
	s := fmt.Sprintf(
		"jobs %d (done %d, failed %d, cancelled %d, timed out %d) over %d fingerprints, %d warm resubmits, %d shed with 429\n"+
			"wall %.2fs, throughput %.1f jobs/s\n"+
			"submit   p50 %8.1fms  p95 %8.1fms\n"+
			"queue    p50 %8.1fms  p95 %8.1fms  p99 %8.1fms\n"+
			"latency  p50 %8.1fms  p95 %8.1fms  p99 %8.1fms\n"+
			"evals: %d fresh, %d warmed; watchers: %d jobs, %d events, %d polling fallbacks",
		r.Submitted, r.Done, r.Failed, r.Cancelled, r.TimedOut, r.Fingerprints, r.WarmResubmits, r.Rejected429s,
		r.WallSeconds, r.Throughput,
		r.SubmitLatency.P50*1e3, r.SubmitLatency.P95*1e3,
		r.QueueWait.P50*1e3, r.QueueWait.P95*1e3, r.QueueWait.P99*1e3,
		r.JobLatency.P50*1e3, r.JobLatency.P95*1e3, r.JobLatency.P99*1e3,
		r.FreshEvals, r.WarmedCoalitions,
		r.Watchers.Jobs, r.Watchers.Events, r.Watchers.Resumes)
	if r.Chaos != nil {
		s += fmt.Sprintf("\nchaos: %d daemon kills, %d worker kills (%d with in-flight work), %d partitions, %d death requeues observed",
			r.Chaos.DaemonKills, r.Chaos.WorkerKills, r.Chaos.KillsWithInflight,
			r.Chaos.Partitions, r.Chaos.ObservedDeathRequeues)
		if r.Chaos.DiskFulls+r.Chaos.Stalls+r.Chaos.Flaps > 0 {
			s += fmt.Sprintf("\nchaos: %d disk-fulls (%d canaries done), %d stalls (%d with in-flight work, %d deadline requeues), %d flaps (%d quarantine rejections)",
				r.Chaos.DiskFulls, r.Chaos.DegradedCanariesDone,
				r.Chaos.Stalls, r.Chaos.StallsWithInflight, r.Chaos.ObservedDeadlineRequeues,
				r.Chaos.Flaps, r.Chaos.ObservedQuarantineRejections)
		}
		for _, inv := range r.Chaos.Invariants {
			mark := "ok  "
			if !inv.OK {
				mark = "FAIL"
			}
			s += fmt.Sprintf("\n  %s %-24s %s", mark, inv.Name, inv.Detail)
		}
	}
	return s
}
