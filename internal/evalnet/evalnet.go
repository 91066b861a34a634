// Package evalnet distributes coalition utility evaluations across a fleet
// of remote worker machines. One coalition utility costs a full federated
// training run, so single-machine throughput is the binding constraint on
// large federations and heavy job traffic; this package removes it by
// turning the utility oracle's evaluation function into a remote call.
//
// The topology is one coordinator (embedded in the fedvald daemon) and N
// workers (cmd/fedvalworker daemons) that dial in and register. A worker
// attaches with one HTTP request, POST /v1/fleet/attach, whose headers
// carry its protocol version, name and capacity; a refused attach (wrong
// version, bad header, quarantined name) is a 4xx/503 with a message, sent
// before any task is assigned. An accepted attach streams both ways on
// that one request as newline-delimited JSON frames:
//
//	coordinator → worker (response)   spec{problem}       once per (worker, job)
//	                                  task{coalitions}    batches, ≤ capacity in flight
//	                                  cancel{spec}        job cancelled or finished
//	worker → coordinator (request)    result{task, utility} streamed as computed
//
// The coordinator reads each result through a line buffer of maxFrame
// bytes: a longer line, or one that does not decode, ends the link, which
// is counted and requeued like any loss.
//
// A ProblemSpec carries the job's normalized wire request
// (fedshap.JobRequest), not datasets: every problem in this repo is
// generated deterministically from its request fields and seed, so each
// worker rebuilds the identical federation locally and training yields
// bit-identical utilities to the in-process oracle. encoding/json writes a
// float64 in its shortest round-tripping form and a uint64 in full, so
// utilities, request fields and coalition words cross the wire bit for bit;
// it cannot carry NaN or ±Inf, so a worker answers a non-finite utility
// with an error.
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
// dropped, blocked Eval calls panic with a *utility.Abort carrying the
// context's error, and workers are told to skip the spec's queued work;
// when its session closes the coordinator also forgets which workers had
// the spec.
//
// Local in-process evaluation remains the default: a coordinator with no
// attached workers is never consulted, and every Session carries the local
// evaluation function as its fallback.
//
// Inside, the Coordinator is a facade over three types: a scheduler
// (sched.go) that decides everything as a state machine over timestamped
// events and names no socket, encoder, goroutine or wall clock; one link
// per attached worker (link.go), the attach handler's two halves, that
// feeds it results and losses and encodes its frames outside the scheduler
// lock; and a Session per job (session.go). A result frame is outside
// input: an error reply or a non-finite utility is a failed evaluation and
// falls back to local.
package evalnet

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"fedshap"
)

// A worker attaches with one request to attachPath, the one path the
// coordinator's listener serves, announcing in its headers its name, its
// capacity and protoVersion, which guards against mismatched builds.
// Version 4 moved the link from gob over a raw connection to JSON lines
// over HTTP and dropped the warm-start utilities from the spec frame.
const (
	protoVersion   = 4
	attachPath     = "/v1/fleet/attach"
	headerProto    = "Fedval-Protocol"
	headerName     = "Fedval-Worker"
	headerCapacity = "Fedval-Capacity"
)

// ReadHeaderTimeout bounds how long the coordinator's listener waits for
// an attach request's headers, and a worker for the response's. fedvald's
// API server uses it too; only header reads are timed, so long-lived
// streams are unaffected.
const ReadHeaderTimeout = 10 * time.Second

// maxFrame caps a frame the coordinator reads, newline included. A result
// frame is under 200 bytes; error text is truncated to maxErrText, which
// JSON escaping can grow at most sixfold. maxCapacity bounds an announced
// capacity: the fleet's total widens a job's evaluation pool, one
// goroutine per slot.
const (
	maxFrame    = 4 << 10
	maxErrText  = 512
	maxCapacity = 1024
)

// errBadFrame marks a frame that is over maxFrame or does not decode.
var errBadFrame = errors.New("evalnet: refused frame")

// ProblemSpec identifies one job's valuation problem to a worker. Request
// fully determines the problem (datasets, model, FL config are all derived
// deterministically from it), which is what makes shipping a spec instead
// of gigabytes of training data possible.
type ProblemSpec struct {
	// ID is the coordinator-unique spec identifier (the job ID).
	ID string `json:"id"`
	// Fingerprint is the problem's persistent-cache key, for worker-side
	// caching or logging.
	Fingerprint string `json:"fingerprint,omitempty"`
	// N is the federation size.
	N int `json:"n"`
	// Request is the normalized job request the worker rebuilds the
	// problem from.
	Request fedshap.JobRequest `json:"request"`
}

// taskWire is one coalition evaluation assignment.
type taskWire struct {
	ID uint64 `json:"id"`
	Lo uint64 `json:"lo"`
	Hi uint64 `json:"hi"`
}

// taskMsg assigns a batch of coalitions under one spec.
type taskMsg struct {
	SpecID string     `json:"spec"`
	Tasks  []taskWire `json:"tasks"`
}

// resultMsg is the one frame a worker sends: one computed utility, streamed
// back as soon as it is computed. A non-empty Err means the
// worker could not produce the utility (spec build failure, cancellation,
// a non-finite value); the coordinator then falls back to local evaluation
// for that coalition. Warm marks an answer served from the worker's own
// per-spec cache (a coalition requeued back to it) rather than trained:
// the coordinator must not fold its near-zero latency into the worker's
// EWMA, or a warm fleet would look fast enough to make every real training
// a "straggler".
type resultMsg struct {
	TaskID uint64  `json:"task"`
	U      float64 `json:"u"`
	Warm   bool    `json:"warm,omitempty"`
	Err    string  `json:"err,omitempty"`
	// Nanos is the worker-side wall time spent producing the utility. A
	// duration rather than timestamps, so coordinator/worker clock skew
	// never corrupts the merged job trace; the coordinator folds it into
	// the job's per-worker dispatch spans.
	Nanos int64 `json:"nanos"`
}

// cancelMsg tells a worker to drop a spec: skip its queued tasks and free
// its cached problem.
type cancelMsg struct {
	SpecID string `json:"spec"`
}

// envelope is a frame the coordinator sends; exactly one field is non-nil.
type envelope struct {
	Spec   *ProblemSpec `json:"spec,omitempty"`
	Task   *taskMsg     `json:"task,omitempty"`
	Cancel *cancelMsg   `json:"cancel,omitempty"`
}

// frameReader reads the frames a worker sends: JSON lines of at most
// maxFrame bytes, through a buffer of exactly that size that never grows.
type frameReader struct{ br *bufio.Reader }

func newFrameReader(r io.Reader) frameReader {
	return frameReader{bufio.NewReaderSize(r, maxFrame)}
}

// next decodes the next result into res. A line over maxFrame or one that
// does not decode is an errBadFrame; a read error is returned as is.
func (fr frameReader) next(res *resultMsg) error {
	line, err := fr.br.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		return fmt.Errorf("%w: over %d bytes", errBadFrame, maxFrame)
	}
	if err != nil {
		return err
	}
	if err := json.Unmarshal(line, res); err != nil {
		return fmt.Errorf("%w: %v", errBadFrame, err)
	}
	return nil
}
