package evalnet

import (
	"context"
	"encoding/gob"
	"fmt"
	"log/slog"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fedshap/internal/combin"
	"fedshap/internal/obs"
	"fedshap/internal/utility"
)

// Evaluator is a worker-side problem evaluator. Eval computes one
// coalition's utility; Warm, when non-nil, pre-populates the evaluator's
// cache with utilities the coordinator shipped (warm-start), returning
// how many were new; Cached, when non-nil, reports whether a coalition
// is already in the cache — answers that were never trained are flagged
// on the wire so they stay out of the coordinator's latency tracking.
// valserve.WorkerEvaluator builds all three from a fresh per-spec
// oracle.
type Evaluator struct {
	Eval   utility.EvalFunc
	Warm   func(entries map[combin.Coalition]float64) int
	Cached func(s combin.Coalition) bool
}

// Worker is the remote-evaluation daemon: it dials a coordinator, receives
// problem specs and coalition batches, trains locally and streams results
// back. cmd/fedvalworker wraps it; tests drive it in-process.
type Worker struct {
	// Name identifies the worker in the coordinator's fleet listing.
	Name string
	// Capacity bounds concurrent evaluations (<= 0 selects GOMAXPROCS);
	// it is announced to the coordinator, which never exceeds it.
	Capacity int
	// Build constructs the evaluator for a spec, called once per spec and
	// cached. The standard builder (valserve.WorkerEvaluator) rebuilds
	// the problem from the spec's request and evaluates through a fresh
	// oracle, so repeated coalitions within a job are served from the
	// worker's own cache and coordinator-shipped warm utilities are never
	// retrained. A builder with no cache to warm returns Evaluator{Eval: f}.
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
	warm      map[combin.Coalition]float64
	once      sync.Once
	eval      Evaluator
	err       error
	cancelled atomic.Bool
}

// Serve speaks the protocol on conn until the connection breaks or ctx is
// done (which closes the connection). Every received task is answered —
// with a utility, or with an error the coordinator converts into a local
// fallback — so the coordinator's in-flight accounting always drains.
func (w *Worker) Serve(ctx context.Context, conn net.Conn) error {
	capacity := w.Capacity
	if capacity <= 0 {
		capacity = runtime.GOMAXPROCS(0)
	}
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)
	if err := sendHello(enc, w.Name, capacity); err != nil {
		return fmt.Errorf("evalnet: hello: %w", err)
	}
	if _, err := readHello(dec); err != nil {
		return fmt.Errorf("evalnet: hello ack: %w", err)
	}

	// ctx cancellation unblocks the decoder by closing the connection.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	log := w.Logger
	if log == nil {
		log = obs.NopLogger()
	}
	log = log.With("worker", w.Name, "coordinator", conn.RemoteAddr().String())
	log.Info("connected", "capacity", capacity)

	var sendMu sync.Mutex
	send := func(e envelope) {
		sendMu.Lock()
		defer sendMu.Unlock()
		_ = enc.Encode(e) // a broken link also breaks the read loop below
	}

	specs := make(map[string]*workerSpec)
	sem := make(chan struct{}, capacity)
	var wg sync.WaitGroup
	for {
		var e envelope
		if err := dec.Decode(&e); err != nil {
			wg.Wait()
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("evalnet: connection lost: %w", err)
		}
		switch {
		case e.Spec != nil:
			if _, ok := specs[e.Spec.Spec.ID]; !ok {
				ws := &workerSpec{spec: e.Spec.Spec}
				if len(e.Spec.Warm) > 0 {
					ws.warm = make(map[combin.Coalition]float64, len(e.Spec.Warm))
					for _, entry := range e.Spec.Warm {
						ws.warm[combin.FromWords(entry.Lo, entry.Hi)] = entry.U
					}
				}
				specs[e.Spec.Spec.ID] = ws
				log.Info("spec received", "job", e.Spec.Spec.ID, "warm", len(e.Spec.Warm))
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
					send(envelope{Result: w.run(ws, e.Task.SpecID, tw)})
				}(tw)
			}
		}
	}
}

// run computes one assignment, converting every failure mode (unknown or
// cancelled spec, build error, evaluation panic) into an error reply. The
// first run of a spec builds its evaluator and applies the warm-start
// utilities shipped with the spec, so a warm coalition is answered from
// cache without training.
func (w *Worker) run(ws *workerSpec, specID string, tw taskWire) (res *resultMsg) {
	res = &resultMsg{SpecID: specID, TaskID: tw.ID, Lo: tw.Lo, Hi: tw.Hi}
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			res.U = 0
			res.Err = fmt.Sprintf("evaluation panic: %v", r)
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
		if ws.err == nil && ws.eval.Warm != nil && len(ws.warm) > 0 {
			ws.eval.Warm(ws.warm)
		}
		ws.warm = nil // applied (or unusable); release the snapshot
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
	return res
}

// Dial connects to a coordinator at addr and serves until the link breaks
// or ctx is done, returning the terminal error. Reconnection policy is the
// caller's (cmd/fedvalworker loops with backoff).
func (w *Worker) Dial(ctx context.Context, addr string) error {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	return w.Serve(ctx, conn)
}
