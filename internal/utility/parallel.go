package utility

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"fedshap/internal/combin"
)

// Parallel evaluation: one bounded worker pool over the oracle's evaluation
// function. Coalition trainings are embarrassingly parallel — each trains
// an independent model — so the wall-clock of every algorithm scales down
// by the worker count while the budget accounting (distinct evaluations)
// and the OnFresh hooks (progress, write-through persistence) behave
// exactly as under serial evaluation.
//
//   - Prefetch is the pool: it deduplicates a known list, drops
//     already-cached entries and lets the workers claim the rest in chunks
//     off an atomic cursor.
//   - EvalBatch is Prefetch plus result collection, for callers that want
//     the utilities, not just a warm cache.

// Prefetch evaluates the given coalitions concurrently on a bounded worker
// pool and caches the results, so that a subsequent single-threaded
// valuation pass (which is where the algorithmic bookkeeping lives) hits a
// warm cache. workers <= 0 selects GOMAXPROCS. Duplicate and
// already-cached coalitions are skipped. When ctx is cancelled the pool
// stops issuing fresh evaluations and Prefetch returns the context error;
// utilities evaluated before the cancellation stay cached. The first
// non-finite utility stops the pool likewise and is returned as a
// *NonFiniteError.
//
// This mirrors the paper's implementation note: coalition evaluations are
// embarrassingly parallel because each trains an independent model, so the
// wall-clock of every algorithm scales down by the worker count while the
// budget accounting (distinct evaluations) is unchanged.
func (o *Oracle) Prefetch(ctx context.Context, coalitions []combin.Coalition, workers int) error {
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
	// A panic on a pool goroutine has no caller to recover it and would end
	// the process; fail keeps the first one, siblings stop claiming, and it
	// is re-raised below on the goroutine that called Prefetch, where it
	// reaches whatever recover guards the caller (the service's job boundary
	// turns it into a failed job). A non-finite utility travels the same way
	// and is returned as the error it is.
	var (
		next atomic.Int64
		fail atomic.Pointer[any]
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
					if ctx.Err() != nil || fail.Load() != nil {
						return
					}
					o.poolEval(s, &fail)
				}
			}
		}()
	}
	wg.Wait()
	if r := fail.Load(); r != nil {
		if nf, ok := (*r).(*NonFiniteError); ok {
			return nf
		}
		panic(*r)
	}
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

// poolEval evaluates one cache miss on a pool goroutine, swallowing the
// cancellation panic a bound oracle context may raise mid-pool and
// recording any other panic in fail.
func (o *Oracle) poolEval(s combin.Coalition, fail *atomic.Pointer[any]) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(*CancelError); ok {
				return
			}
			p := r // r itself must not escape: it would cost every call an allocation
			fail.CompareAndSwap(nil, &p)
		}
	}()
	o.fresh(s)
}
