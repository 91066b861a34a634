// Package utility implements the utility oracle U(M_S) at the heart of
// SV-based data valuation: train a federated model on a coalition's merged
// datasets and score it on the shared test set. The oracle memoises by
// coalition bitmask — every valuation algorithm in this repo is budgeted
// and timed in units of *distinct coalition evaluations*, matching the
// paper's accounting where τ (one train+evaluate) dominates everything.
//
// The cache behind the oracle is sharded for concurrent evaluation pools
// (Prefetch, the valuation service) and can be layered over a disk-backed
// Store so utilities survive the process and warm later jobs. Evaluation is
// cooperatively cancellable via a bound context.Context, and a progress
// hook reports every fresh evaluation — together these are what let a
// long-running service cancel jobs mid-run and stream budget consumption.
package utility

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"fedshap/internal/combin"
	"fedshap/internal/dataset"
	"fedshap/internal/fl"
	"fedshap/internal/model"
)

// EvalFunc trains and evaluates the model for one coalition, returning its
// utility.
type EvalFunc func(s combin.Coalition) float64

// CancelError is the panic payload raised by a cancelled oracle when a
// fresh evaluation is requested. It unwraps to the bound context's error,
// so errors.Is(err, context.Canceled) holds after shapley.Run converts the
// panic back into an error. Cached lookups never raise it: a cancelled job
// may finish reading warm utilities, it just stops issuing fresh ones.
type CancelError struct {
	// Err is the context error that triggered cancellation.
	Err error
}

// Error implements error.
func (e *CancelError) Error() string { return "utility: evaluation cancelled: " + e.Err.Error() }

// Unwrap exposes the context error for errors.Is.
func (e *CancelError) Unwrap() error { return e.Err }

// NonFiniteError is the panic payload raised when an evaluation returns NaN
// or ±Inf — a diverged model, a metric dividing by zero. Such a utility is
// a failure of the run that asked for it, not a value: it is not cached,
// not charged to the budget and not written through, and the run ends with
// this error (Prefetch returns it, shapley.Run converts the panic).
type NonFiniteError struct {
	Coalition combin.Coalition
	Value     float64
}

// Error implements error.
func (e *NonFiniteError) Error() string {
	return fmt.Sprintf("utility: non-finite utility %v for coalition %s", e.Value, e.Coalition)
}

// ContextBinder is implemented by Sources whose fresh evaluations can be
// bound to a context for cooperative cancellation.
type ContextBinder interface {
	// SetContext binds ctx; once it is done, requesting a non-cached
	// utility panics with *CancelError (recovered by shapley.Run).
	SetContext(ctx context.Context)
}

// Oracle memoises coalition utilities in a sharded concurrent cache and
// counts fresh evaluations. It is safe for concurrent use.
type Oracle struct {
	n    int
	eval EvalFunc

	cache *shardedCache

	// ctx is set before a run and read on the evaluation path;
	// atomic.Value keeps it race-free against concurrent U calls from a
	// prefetch pool.
	ctx atomic.Value // context.Context
	// onFresh holds the OnFresh hooks in registration order. Like
	// WrapEval, registration precedes evaluation, so it is read unlocked.
	onFresh []func(s combin.Coalition, u float64, total int)

	// evals counts distinct fresh evaluations — the consumed budget.
	// Entries inserted via Warm (e.g. from a persistent Store) are free.
	// Every fresh evaluation on every pool worker writes it, so it has a
	// cache line to itself, away from the fields above that every
	// evaluation reads.
	_     [cacheLinePad]byte
	evals atomic.Int64
	_     [cacheLinePad]byte
}

// cacheLinePad is a 64-byte cache line less an 8-byte counter: that much
// padding on both sides keeps the counter's line private at any alignment.
const cacheLinePad = 64 - 8

// NewOracle wraps an evaluation function for a federation of n clients.
func NewOracle(n int, eval EvalFunc) *Oracle {
	return &Oracle{n: n, eval: eval, cache: newShardedCache()}
}

// N returns the federation size.
func (o *Oracle) N() int { return o.n }

// WrapEval replaces the oracle's evaluation function with wrap(current),
// handing the wrapped function the previous one as its fallback. This is
// the seam the distributed evaluator (internal/evalnet) plugs into: the
// remote EvalFunc dispatches coalitions to the worker fleet and falls back
// to the original in-process function when no workers remain. It must be
// called before evaluations begin, never concurrently with U.
func (o *Oracle) WrapEval(wrap func(EvalFunc) EvalFunc) {
	o.eval = wrap(o.eval)
}

// SetContext implements ContextBinder.
func (o *Oracle) SetContext(ctx context.Context) {
	o.ctx.Store(ctx)
}

// OnFresh registers a hook invoked after every fresh evaluation with the
// coalition, its utility and the running distinct-evaluation total — the
// one seam for write-through persistence (Store.Attach) and progress
// reporting. Warmed and cached lookups never fire
// it. Hooks fire in registration order, so the store a job attaches
// first has written a utility before the job's progress event reports
// it. Under Prefetch, evaluations — and so the hooks — run in the pool's
// shard-major claim order, not in the order of the list. Register before evaluations begin, never concurrently with U; the
// hooks themselves may be called concurrently from evaluation workers
// and must be cheap and thread-safe.
func (o *Oracle) OnFresh(fn func(s combin.Coalition, u float64, total int)) {
	o.onFresh = append(o.onFresh, fn)
}

// ctxErr returns the bound context's error once it is done. It reads the
// Done channel, which takes no lock: Err locks the context's mutex (as of
// Go 1.24), and pool workers checking on every fresh evaluation contend on
// it.
func (o *Oracle) ctxErr() error {
	if ctx, ok := o.ctx.Load().(context.Context); ok {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
	}
	return nil
}

// U returns the utility of coalition s, evaluating and caching on first use.
// If a bound context is done, a cache miss panics with *CancelError; a
// non-finite evaluation panics with *NonFiniteError.
func (o *Oracle) U(s combin.Coalition) float64 {
	if v, ok := o.cache.get(s); ok {
		return v
	}
	return o.fresh(s)
}

// fresh evaluates a coalition the cache does not hold — the miss half of U,
// which the prefetch pool enters directly for coalitions its dedupe pass
// already looked up.
func (o *Oracle) fresh(s combin.Coalition) float64 {
	if err := o.ctxErr(); err != nil {
		panic(&CancelError{Err: err})
	}
	// Evaluate outside any lock; duplicate concurrent evaluation of the
	// same coalition is possible but harmless (deterministic result), and
	// only the first insert is charged.
	v := o.eval(s)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(&NonFiniteError{Coalition: s, Value: v})
	}
	if o.cache.putIfAbsent(s, v) {
		total := int(o.evals.Add(1))
		for _, fn := range o.onFresh {
			fn(s, v, total)
		}
	}
	return v
}

// Cached reports whether s has already been evaluated (or warmed).
func (o *Oracle) Cached(s combin.Coalition) bool {
	_, ok := o.cache.get(s)
	return ok
}

// Evals returns the number of distinct coalitions evaluated so far — the
// consumed sampling budget. Warmed entries are not counted.
func (o *Oracle) Evals() int {
	return int(o.evals.Load())
}

// Warm inserts known utilities without charging the evaluation budget —
// the loading path for persisted or otherwise pre-computed coalitions. It
// returns how many entries were new.
func (o *Oracle) Warm(entries map[combin.Coalition]float64) int {
	added := 0
	//fedvallint:allow(determinism) putIfAbsent per distinct key is commutative; insertion order cannot affect cache contents or the count
	for s, v := range entries {
		if o.cache.putIfAbsent(s, v) {
			added++
		}
	}
	return added
}

// Size returns the number of cached coalitions (fresh plus warmed).
func (o *Oracle) Size() int { return o.cache.len() }

// Reset clears the cache and the evaluation counter.
func (o *Oracle) Reset() {
	o.cache.clear()
	o.evals.Store(0)
}

// Metric scores a trained model on a test set. Under NewFLOracle the model
// is arena-owned and valid only until the evaluation returns — the next
// coalition on the same pool slot retrains that very model — so a Metric
// must not retain it (Clone what has to outlive the call).
type Metric func(m model.Model, test *dataset.Dataset) float64

// FLSpec bundles everything needed to evaluate coalitions by federated
// training: the model factory, the per-client datasets, the shared test set,
// the FedAvg configuration and the utility metric.
type FLSpec struct {
	Factory model.Factory
	Clients []*dataset.Dataset
	Test    *dataset.Dataset
	Config  fl.Config
	Metric  Metric
}

// NewFLOracle builds the standard oracle of Def. 2: U(M_S) = Metric of the
// FL model trained on ∪_{i∈S} D_i. Training is deterministic per coalition
// (seeded from the base seed), so repeated queries agree.
func NewFLOracle(spec FLSpec) *Oracle {
	if spec.Metric == nil {
		spec.Metric = model.Accuracy
	}
	return NewOracle(len(spec.Clients), (&flEvaluator{spec: spec}).eval)
}

// flEvaluator is the EvalFunc behind NewFLOracle. It owns the training
// arenas: an evaluation pops one off the free list (or starts a new one),
// trains and scores in it, and pushes it back, so w concurrent callers —
// the local pool, an evalnet worker, a service job, the serial path — hold
// at most w arenas between them and a warm evaluation allocates nothing.
// The list is a plain mutex-guarded slice, not a sync.Pool: arenas would
// then come and go with the collector's cycles, and what an operation
// allocates would stop repeating from run to run.
type flEvaluator struct {
	spec FLSpec

	mu   sync.Mutex
	free []*flScratch
}

// flScratch is what one evaluation needs beyond the spec.
type flScratch struct {
	arena   fl.Arena
	members []int
	subset  []*dataset.Dataset
}

func (e *flEvaluator) eval(s combin.Coalition) float64 {
	e.mu.Lock()
	var sc *flScratch
	if last := len(e.free) - 1; last >= 0 {
		sc, e.free = e.free[last], e.free[:last]
	} else {
		sc = new(flScratch)
	}
	e.mu.Unlock()

	sc.members = s.AppendMembers(sc.members[:0])
	sc.subset = sc.subset[:0]
	for _, i := range sc.members {
		sc.subset = append(sc.subset, e.spec.Clients[i])
	}
	v := e.spec.Metric(sc.arena.Train(e.spec.Factory, sc.subset, e.spec.Config), e.spec.Test)

	// Not deferred: the arena of an evaluation that panics (a Metric, a
	// Factory) is dropped, never handed to another evaluation.
	e.mu.Lock()
	e.free = append(e.free, sc)
	e.mu.Unlock()
	return v
}

// Snapshot returns a copy of the cache, for tests and reporting.
func (o *Oracle) Snapshot() map[combin.Coalition]float64 {
	return o.cache.snapshot()
}

// TableOracle builds an oracle from an explicit utility table, used by the
// paper's worked examples (Table I, Figs. 2 and 5) and by synthetic games in
// tests. Lookups of missing coalitions panic.
func TableOracle(n int, table map[combin.Coalition]float64) *Oracle {
	return NewOracle(n, func(s combin.Coalition) float64 {
		v, ok := table[s]
		if !ok {
			panic("utility: coalition missing from table: " + s.String())
		}
		return v
	})
}
