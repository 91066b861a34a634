package evalnet

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fedshap/internal/combin"
	"fedshap/internal/obs"
	"fedshap/internal/utility"
)

// Evaluator is a worker-side problem evaluator. Eval computes one
// coalition's utility; Cached, when non-nil, reports whether a coalition
// is already in the evaluator's cache — answers that were never trained
// are flagged on the wire so they stay out of the coordinator's latency
// tracking. valserve.WorkerEvaluator builds both from a fresh per-spec
// oracle.
type Evaluator struct {
	Eval   utility.EvalFunc
	Cached func(s combin.Coalition) bool
}

// Worker is the remote-evaluation daemon: it dials a coordinator, receives
// problem specs and coalition tasks, trains locally and streams results
// back. cmd/fedvalworker wraps it; tests drive it in-process.
type Worker struct {
	// Name identifies the worker in the coordinator's fleet listing.
	Name string
	// Capacity bounds concurrent evaluations (<= 0 selects GOMAXPROCS);
	// it is announced to the coordinator, which never exceeds it and
	// refuses an attach announcing more than 1024.
	Capacity int
	// Build constructs the evaluator for a spec, called once per spec and
	// cached. The standard builder (valserve.WorkerEvaluator) rebuilds
	// the problem from the spec's request and evaluates through a fresh
	// oracle, so a coalition requeued back to this worker is served from
	// its own cache. A builder with no cache returns Evaluator{Eval: f}.
	// When nil, every task is answered with an error and the coordinator
	// evaluates it locally.
	Build func(spec ProblemSpec) (Evaluator, error)
	// Observe, when non-nil, is invoked after every answered assignment
	// with its outcome ("fresh", "warm" or "error") and wall time — the
	// seam cmd/fedvalworker's fedvalworker_* metric series hang off.
	Observe func(outcome string, seconds float64)
	// Logger receives structured connection/spec lifecycle logs; nil
	// discards them.
	Logger *slog.Logger
}

// workerSpec is one cached problem on the worker.
type workerSpec struct {
	spec      ProblemSpec
	once      sync.Once
	eval      Evaluator
	err       error
	cancelled atomic.Bool
}

// Dial attaches to the coordinator at addr and serves until the link
// breaks or ctx is done, returning the terminal error: the coordinator's
// message when it refuses the attach. Every received task is answered —
// with a utility, or with an error the coordinator converts into a local
// fallback — so the coordinator's in-flight accounting always drains.
// Reconnection policy is the caller's (cmd/fedvalworker loops with
// backoff).
func (w *Worker) Dial(ctx context.Context, addr string) error {
	capacity := w.Capacity
	if capacity <= 0 {
		capacity = runtime.GOMAXPROCS(0)
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	// ctx ends the link by closing its connection, which ends every read
	// and write on it.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	// The attach request owns the connection for the link's life: its own
	// goroutine writes it, streaming the body — result frames, one chunk
	// each — from a pipe, while this one reads the response.
	results, out := io.Pipe()
	defer out.Close()
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+attachPath, results)
	if err != nil {
		return err
	}
	req.Header.Set(headerProto, strconv.Itoa(protoVersion))
	req.Header.Set(headerName, w.Name)
	req.Header.Set(headerCapacity, strconv.Itoa(capacity))
	go func() { results.CloseWithError(req.Write(conn)) }()
	// A coordinator that never answers is a failed attach, not a hung
	// worker.
	_ = conn.SetReadDeadline(time.Now().Add(ReadHeaderTimeout))
	resp, err := http.ReadResponse(bufio.NewReader(conn), req)
	if err != nil {
		return cmp.Or(ctx.Err(), fmt.Errorf("evalnet: attach: %w", err))
	}
	_ = conn.SetReadDeadline(time.Time{})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, maxFrame))
		return fmt.Errorf("evalnet: attach refused (%s): %s", resp.Status, strings.TrimSpace(string(msg)))
	}

	log := cmp.Or(w.Logger, obs.NopLogger()).With("worker", w.Name, "coordinator", addr)
	log.Info("connected", "capacity", capacity)

	var sendMu sync.Mutex
	enc := json.NewEncoder(out)
	send := func(res *resultMsg) {
		sendMu.Lock()
		defer sendMu.Unlock()
		_ = enc.Encode(res) // a broken link also breaks the read loop below
	}

	dec := json.NewDecoder(resp.Body)
	specs := make(map[string]*workerSpec)
	sem := make(chan struct{}, capacity)
	var wg sync.WaitGroup
	for {
		var e envelope
		if err := dec.Decode(&e); err != nil {
			out.CloseWithError(err) // fail the sends still to come
			wg.Wait()
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("evalnet: connection lost: %w", err)
		}
		switch {
		case e.Spec != nil:
			if _, ok := specs[e.Spec.ID]; !ok {
				specs[e.Spec.ID] = &workerSpec{spec: *e.Spec}
				log.Info("spec received", "job", e.Spec.ID)
			}
		case e.Cancel != nil:
			// Mark, then drop: in-flight goroutines still hold the pointer
			// and skip via the flag, while the map releases the rebuilt
			// problem (datasets + oracle cache) so a long-lived worker
			// doesn't accumulate one federation per served job. A stale
			// task arriving after the drop is answered "unknown spec",
			// which the coordinator turns into a local fallback.
			if ws, ok := specs[e.Cancel.SpecID]; ok {
				ws.cancelled.Store(true)
				delete(specs, e.Cancel.SpecID)
			}
		case e.Task != nil:
			ws := specs[e.Task.SpecID]
			for _, tw := range e.Task.Tasks {
				wg.Add(1)
				go func(tw taskWire) {
					defer wg.Done()
					sem <- struct{}{}
					defer func() { <-sem }()
					send(w.run(ws, tw))
				}(tw)
			}
		}
	}
}

// run computes one assignment, converting every failure mode (unknown or
// cancelled spec, build error, evaluation panic, a non-finite utility,
// which JSON cannot carry) into an error reply, its text truncated to
// keep the frame small. The first run of a spec builds its evaluator.
func (w *Worker) run(ws *workerSpec, tw taskWire) (res *resultMsg) {
	res = &resultMsg{TaskID: tw.ID}
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			res.U = 0
			res.Err = fmt.Sprintf("evaluation panic: %v", r)
		}
		if len(res.Err) > maxErrText {
			res.Err = strings.ToValidUTF8(res.Err[:maxErrText], "")
		}
		res.Nanos = time.Since(start).Nanoseconds()
		if w.Observe != nil {
			outcome := "fresh"
			switch {
			case res.Err != "":
				outcome = "error"
			case res.Warm:
				outcome = "warm"
			}
			w.Observe(outcome, time.Since(start).Seconds())
		}
	}()
	if ws == nil {
		res.Err = "unknown spec"
		return res
	}
	if ws.cancelled.Load() {
		res.Err = "spec cancelled"
		return res
	}
	ws.once.Do(func() {
		ws.err = fmt.Errorf("evalnet: worker has no problem builder")
		if w.Build != nil {
			ws.eval, ws.err = w.Build(ws.spec)
		}
	})
	if ws.err != nil {
		res.Err = ws.err.Error()
		return res
	}
	coal := combin.FromWords(tw.Lo, tw.Hi)
	if ws.eval.Cached != nil && ws.eval.Cached(coal) {
		res.Warm = true // answered from cache: no training happened
	}
	res.U = ws.eval.Eval(coal)
	if math.IsNaN(res.U) || math.IsInf(res.U, 0) {
		res.Err = fmt.Sprintf("non-finite utility %v", res.U)
		res.U, res.Warm = 0, false
	}
	return res
}
