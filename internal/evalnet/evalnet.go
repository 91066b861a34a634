// Package evalnet distributes coalition utility evaluations across a fleet
// of remote worker machines. One coalition utility costs a full federated
// training run, so single-machine throughput is the binding constraint on
// large federations and heavy job traffic; this package removes it by
// turning the utility oracle's evaluation function into a remote call.
//
// The topology is one coordinator (embedded in the fedvald daemon) and N
// workers (cmd/fedvalworker daemons) that dial in and register. The
// protocol is gob over a net.Conn and deliberately small:
//
//	worker → coordinator   hello{name, capacity}
//	coordinator → worker   hello ack, then per job:
//	                       spec{problem, warm utilities}  once per (worker, job)
//	                       task{coalitions}  batches, ≤ capacity in flight
//	                       cancel{spec}      job cancelled or finished
//	worker → coordinator   result{coalition, utility} streamed as computed
//
// A ProblemSpec carries the job's normalized wire request
// (fedshap.JobRequest), not datasets: every problem in this repo is
// generated deterministically from its request fields and seed, so each
// worker rebuilds the identical federation locally and training yields
// bit-identical utilities to the in-process oracle. The first spec message
// a worker receives for a job also carries the coordinator's cached
// utilities for the job's fingerprint (warm-start), so a recycled or
// late-attaching worker never retrains a coalition the coordinator side
// already knows.
//
// The coordinator hands each job a Session whose Eval method is plugged in
// as the oracle's utility.EvalFunc (Oracle.WrapEval), so the existing
// Prefetch pool, sharded cache, budget accounting and JSONL write-through
// all apply unchanged — remote results land in the coordinator's cache and
// store exactly as local ones do. Scheduling is adaptive: the coordinator
// tracks an EWMA of each worker's evaluation latency and assigns work by
// expected completion time, and near the end of a job it speculatively
// re-dispatches a straggler's in-flight coalitions to idle workers — the
// first result wins and duplicates are discarded, so budget accounting and
// values stay bit-identical to serial evaluation. A dead worker's
// in-flight coalitions are requeued to the surviving fleet (or evaluated
// locally when no workers remain), and results are delivered at most once,
// so a killed worker never loses or double-counts an evaluation.
// Cancellation propagates: when a job's context is done, queued tasks are
// dropped, blocked Eval calls abort with *utility.CancelError, and workers
// are told to skip the spec's queued work; when its session closes the
// coordinator also forgets which workers had the spec.
//
// Local in-process evaluation remains the default: a coordinator with no
// attached workers is never consulted, and every Session carries the local
// evaluation function as its fallback.
//
// Inside, the Coordinator is a facade over three types: a scheduler
// (sched.go) that decides everything as a state machine over timestamped
// events and names no socket, encoder, goroutine or wall clock; one link
// per connection (link.go) that feeds it results and losses and encodes its
// frames outside the scheduler lock; and a Session per job (session.go). A
// result frame is outside input: an error reply or a non-finite utility is
// a failed evaluation and falls back to local.
package evalnet

import "fedshap"

// protoVersion guards against mismatched coordinator/worker builds.
// Version 2 added warm-start utilities on the spec message; version 3
// added the worker-side evaluation duration on the result message.
const protoVersion = 3

// ProblemSpec identifies one job's valuation problem to a worker. Request
// fully determines the problem (datasets, model, FL config are all derived
// deterministically from it), which is what makes shipping a spec instead
// of gigabytes of training data possible.
type ProblemSpec struct {
	// ID is the coordinator-unique spec identifier (the job ID).
	ID string
	// Fingerprint is the problem's persistent-cache key, for worker-side
	// caching or logging.
	Fingerprint string
	// N is the federation size.
	N int
	// Request is the normalized job request the worker rebuilds the
	// problem from.
	Request fedshap.JobRequest
}

// helloMsg opens a connection in both directions: the worker announces
// itself, the coordinator acknowledges.
type helloMsg struct {
	Proto    int
	Name     string
	Capacity int
}

// specMsg delivers a problem spec to a worker, once per (worker, spec).
// Warm carries the coordinator's cached utilities for the spec at ship
// time: the worker pre-populates its own cache with them so coalitions the
// coordinator (or its persistent store) already knows are never retrained
// on the fleet.
type specMsg struct {
	Spec ProblemSpec
	Warm []warmEntry
}

// warmEntry is one (coalition, utility) pair shipped for warm-start.
type warmEntry struct {
	Lo, Hi uint64
	U      float64
}

// taskWire is one coalition evaluation assignment.
type taskWire struct {
	ID     uint64
	Lo, Hi uint64
}

// taskMsg assigns a batch of coalitions under one spec.
type taskMsg struct {
	SpecID string
	Tasks  []taskWire
}

// resultMsg streams one computed utility back. A non-empty Err means the
// worker could not produce the utility (spec build failure, cancellation);
// the coordinator then falls back to local evaluation for that coalition.
// Warm marks an answer served from the worker's cache (warm-start or a
// repeated coalition) rather than trained: the coordinator must not fold
// its near-zero latency into the worker's EWMA, or a warm fleet would
// look fast enough to make every real training a "straggler".
type resultMsg struct {
	SpecID string
	TaskID uint64
	Lo, Hi uint64
	U      float64
	Warm   bool
	Err    string
	// Nanos is the worker-side wall time spent producing the utility. A
	// duration rather than timestamps, so coordinator/worker clock skew
	// never corrupts the merged job trace; the coordinator folds it into
	// the job's per-worker dispatch spans.
	Nanos int64
}

// cancelMsg tells a worker to drop a spec: skip its queued tasks and free
// its cached problem.
type cancelMsg struct {
	SpecID string
}

// envelope is the single wire frame; exactly one exported field is
// non-nil.
type envelope struct {
	Hello  *helloMsg
	Spec   *specMsg
	Task   *taskMsg
	Result *resultMsg
	Cancel *cancelMsg

	// warm, when set on an outgoing Spec envelope, materialises Spec.Warm
	// just before encoding — in the writer goroutine, outside the
	// scheduler lock, so a large cache snapshot never stalls dispatching
	// (gob ignores unexported fields).
	warm func() []warmEntry
}
