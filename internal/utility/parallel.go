package utility

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"fedshap/internal/combin"
)

// Parallel evaluation: every entry point below drives the same bounded
// worker pool over the oracle's evaluation function. Coalition trainings
// are embarrassingly parallel — each trains an independent model — so the
// wall-clock of every algorithm scales down by the worker count while the
// budget accounting (distinct evaluations), the OnEval progress hook and
// the write-through persistence seam behave exactly as under serial
// evaluation.
//
//   - PrefetchStream is the pipelined core: it consumes coalitions from a
//     channel as the producer emits them, so evaluation overlaps plan
//     generation.
//   - Prefetch deduplicates a known list, drops already-cached entries and
//     lets the pool claim the rest in chunks off an atomic cursor.
//   - EvalBatch is Prefetch plus result collection, for callers that want
//     the utilities, not just a warm cache.

// PrefetchStream evaluates coalitions arriving on the channel concurrently
// on a bounded worker pool, caching the results. workers <= 0 selects
// GOMAXPROCS. Already-cached coalitions are skipped, and duplicates within
// the stream are claimed by exactly one worker — a duplicate must never
// race two workers into the same training run, because each evaluation is
// a full federated training. When ctx is cancelled the pool drains the
// channel without issuing fresh evaluations and returns the context error;
// utilities evaluated before the cancellation stay cached. PrefetchStream
// returns once the channel is closed and the in-flight evaluations
// finished.
func (o *Oracle) PrefetchStream(ctx context.Context, coalitions <-chan combin.Coalition, workers int) error {
	if ctx == nil {
		ctx = context.Background() //fedvallint:allow(ctxthread) nil-ctx compat fallback; callers that care pass their own
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var (
		mu   sync.Mutex
		seen combin.Set
		fail poolPanic
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range coalitions {
				if ctx.Err() != nil || fail.raised() {
					continue // drain the channel without evaluating
				}
				mu.Lock()
				_, first := seen.Add(s)
				mu.Unlock()
				if first && !o.Cached(s) {
					o.poolEval(s, &fail)
				}
			}
		}()
	}
	wg.Wait()
	fail.rethrow()
	return ctx.Err()
}

// Prefetch evaluates the given coalitions concurrently on a bounded worker
// pool and caches the results, so that a subsequent single-threaded
// valuation pass (which is where the algorithmic bookkeeping lives) hits a
// warm cache. workers <= 0 selects GOMAXPROCS. Duplicate and
// already-cached coalitions are skipped. When ctx is cancelled the pool
// stops issuing fresh evaluations and Prefetch returns the context error;
// utilities evaluated before the cancellation stay cached.
//
// This mirrors the paper's implementation note: coalition evaluations are
// embarrassingly parallel because each trains an independent model, so the
// wall-clock of every algorithm scales down by the worker count while the
// budget accounting (distinct evaluations) is unchanged.
func (o *Oracle) Prefetch(ctx context.Context, coalitions []combin.Coalition, workers int) error {
	if ctx == nil {
		ctx = context.Background() //fedvallint:allow(ctxthread) nil-ctx compat fallback; callers that care pass their own
	}
	// Deduplicate and drop cached entries up front.
	seen := combin.NewSet(len(coalitions))
	pending := make([]combin.Coalition, 0, len(coalitions))
	for _, s := range coalitions {
		if _, first := seen.Add(s); first && !o.Cached(s) {
			pending = append(pending, s)
		}
	}
	if len(pending) == 0 {
		return ctx.Err()
	}
	o.cache.reserve(len(pending))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pending) {
		workers = len(pending)
	}
	// The list is already deduplicated and known absent from the cache, so
	// the pool claims work with a bare atomic cursor and enters the miss
	// path directly — one training per entry by construction, no second
	// lookup. A claim takes a chunk: one entry when the list is short
	// (every entry a training run), dozens when it is thousands long (cheap
	// utilities, where a shared counter bumped per entry is the cost).
	chunk := max(1, len(pending)/(workers*64))
	var (
		next atomic.Int64
		fail poolPanic
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				hi := int(next.Add(int64(chunk)))
				lo := hi - chunk
				if lo >= len(pending) {
					return
				}
				if hi > len(pending) {
					hi = len(pending)
				}
				for _, s := range pending[lo:hi] {
					if ctx.Err() != nil || fail.raised() {
						return
					}
					o.poolEval(s, &fail)
				}
			}
		}()
	}
	wg.Wait()
	fail.rethrow()
	return ctx.Err()
}

// EvalBatch evaluates the given coalitions concurrently (see Prefetch for
// the pool semantics) and returns their utilities aligned with the input.
// On cancellation it returns the context error and no values.
func (o *Oracle) EvalBatch(ctx context.Context, coalitions []combin.Coalition, workers int) ([]float64, error) {
	if err := o.Prefetch(ctx, coalitions, workers); err != nil {
		return nil, err
	}
	out := make([]float64, len(coalitions))
	for i, s := range coalitions {
		out[i] = o.U(s) // warm: the pool above evaluated every entry
	}
	return out, nil
}

// poolPanic carries the first panic of a pool goroutine to the goroutine
// that started the pool. A panic on a pool goroutine has no caller to
// recover it and would end the process; re-raised after the pool has
// drained, it reaches whatever recover guards the caller (the service's
// job boundary turns it into a failed job).
type poolPanic struct {
	first atomic.Pointer[any]
}

// raised reports whether a panic was recorded, so siblings stop claiming.
func (p *poolPanic) raised() bool { return p.first.Load() != nil }

// rethrow re-raises the recorded panic, if any. Call it after wg.Wait.
func (p *poolPanic) rethrow() {
	if r := p.first.Load(); r != nil {
		panic(*r)
	}
}

// poolEval evaluates one cache miss on a pool goroutine, swallowing the
// cancellation panic a bound oracle context may raise mid-pool and
// recording any other panic in fail.
func (o *Oracle) poolEval(s combin.Coalition, fail *poolPanic) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(*CancelError); ok {
				return
			}
			p := r // r itself must not escape: it would cost every call an allocation
			fail.first.CompareAndSwap(nil, &p)
		}
	}()
	o.fresh(s)
}

// PrefetchStrata warms the cache with every coalition of size ≤ k — the
// exact set IPSS evaluates exhaustively (its "key combinations").
func (o *Oracle) PrefetchStrata(ctx context.Context, k, workers int) error {
	return o.Prefetch(ctx, combin.AppendSubsetsUpTo(nil, o.n, k), workers)
}
