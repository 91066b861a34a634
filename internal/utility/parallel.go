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
//     already-cached entries, regroups the rest by cache shard and lets the
//     workers claim them off an atomic cursor.
//   - EvalBatch is Prefetch plus result collection, for callers that want
//     the utilities, not just a warm cache.
//
// The claim order exists so that workers share no cache line on the miss
// path. Every insert locks its shard's mutex and writes its shard's table,
// and four 16-byte shard headers share a line: on cheap utilities, two
// workers inserting into the same shards or neighbouring ones spent more
// time moving those lines between cores than evaluating, and a pool of two
// took more than twice the CPU of a pool of one. So a claim is at most chunk entries
// of one shard, and successive claims visit the shards in a stride of
// claimStride: claims running at the same time lock mutexes and grow
// tables that no other running claim touches. For the same reason the
// fresh-evaluation counter has a cache line of its own, and the per-entry
// cancellation checks read Done channels instead of calling Err, which
// locks the context's mutex (as of Go 1.24).

// claimStride spaces the shards of successive claims. Four shard headers
// share a 64-byte line; a stride of five, coprime with numShards, puts any
// 13 successive claims on 13 different lines.
const claimStride = 5

// claimPool is one Prefetch call's work: the pending coalitions grouped by
// shard and the cursor the workers claim them off.
type claimPool struct {
	o    *Oracle
	done <-chan struct{} // the Prefetch context's

	// list holds the pending coalitions grouped by cache shard, plan order
	// within each: shard sh's entries are list[start[sh]:start[sh+1]].
	list  []combin.Coalition
	start [numShards + 1]int32
	// Claim c is round c/numShards of shard (c mod numShards)·claimStride
	// mod numShards: entries [round·chunk, (round+1)·chunk) of that shard,
	// fewer at its end and none past it. claims counts the rounds that the
	// longest shard needs, times numShards.
	chunk, claims, workers int

	next atomic.Int64
	// fail holds the first panic of a worker; it stops every worker.
	fail atomic.Pointer[any]
	wg   sync.WaitGroup
}

// planClaims deduplicates coalitions, drops the cached ones and groups the
// rest by shard for a pool of at most workers (<= 0 selects GOMAXPROCS).
// It returns nil when nothing is left to evaluate. The grouped list reuses
// the dedupe set's key storage, which is free once pending is built.
func (o *Oracle) planClaims(coalitions []combin.Coalition, workers int) *claimPool {
	seen := combin.NewSet(len(coalitions))
	pending := make([]combin.Coalition, 0, len(coalitions))
	var sizes [numShards]int32
	for _, s := range coalitions {
		if _, first := seen.Add(s); first {
			h := s.Hash()
			if _, ok := o.cache.lookup(s, h); !ok {
				pending = append(pending, s)
				sizes[shardOf(h)]++
			}
		}
	}
	if len(pending) == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(pending))
	// A claim takes a chunk: one entry when the list is short (every entry
	// a training run), dozens when it is thousands long (cheap utilities,
	// where a shared counter bumped per entry is the cost).
	p := &claimPool{o: o, list: seen.Keys()[:len(pending)], workers: workers, chunk: max(1, len(pending)/(workers*64))}
	longest := int32(0)
	for sh, size := range sizes {
		p.start[sh+1] = p.start[sh] + size
		longest = max(longest, size)
	}
	at := [numShards]int32(p.start[:numShards]) // each shard's write cursor
	for _, s := range pending {
		sh := shardOf(s.Hash())
		p.list[at[sh]] = s
		at[sh]++
	}
	p.claims = numShards * ((int(longest) + p.chunk - 1) / p.chunk)
	return p
}

// claim returns the list range of claim c.
func (p *claimPool) claim(c int) (lo, hi int) {
	sh := c % numShards * claimStride % numShards
	end := int(p.start[sh+1])
	lo = min(int(p.start[sh])+c/numShards*p.chunk, end)
	return lo, min(lo+p.chunk, end)
}

// work is one pool goroutine: it claims until the claims run out, the
// context is done or a sibling failed.
func (p *claimPool) work() {
	defer p.wg.Done()
	for {
		c := int(p.next.Add(1)) - 1
		if c >= p.claims {
			return
		}
		lo, hi := p.claim(c)
		for _, s := range p.list[lo:hi] {
			select {
			case <-p.done:
				return
			default:
			}
			if p.fail.Load() != nil {
				return
			}
			p.eval(s)
		}
	}
}

// eval evaluates one cache miss, recording the first panic in fail.
func (p *claimPool) eval(s combin.Coalition) {
	defer func() {
		if r := recover(); r != nil {
			first := r // r itself must not escape: it would cost every call an allocation
			p.fail.CompareAndSwap(nil, &first)
		}
	}()
	p.o.fresh(s)
}

// Prefetch evaluates the given coalitions concurrently on a bounded worker
// pool and caches the results, so that a subsequent single-threaded
// valuation pass (which is where the algorithmic bookkeeping lives) hits a
// warm cache. workers <= 0 selects GOMAXPROCS. Duplicate and
// already-cached coalitions are skipped. ctx is the pool's one context:
// when it is cancelled the pool stops issuing fresh evaluations and
// Prefetch returns the context error; utilities evaluated before the
// cancellation stay cached. When ctx is already done on entry, no
// evaluation could run, and Prefetch returns before it plans or reserves
// anything. The first panic of an evaluation stops the pool too: a
// *NonFiniteError is returned as the error it is, a *CancelError (an
// evaluation function that waits on a context of its own, as the fleet
// session does) as the context error it carries, and any other panic is
// re-raised on the calling goroutine.
//
// The pool evaluates shard-major, not in list order: it groups the pending
// coalitions by cache shard (list order within a shard) and deals claims
// of at most max(1, pending/(workers·64)) entries round-robin over the
// shards, in a stride of claimStride, so that workers never insert into
// the same shard or a neighbouring one at the same time. A pool of one
// therefore evaluates claim by claim in that order, and OnFresh hooks —
// progress reports, store write-through — see the same order.
//
// This mirrors the paper's implementation note: coalition evaluations are
// embarrassingly parallel because each trains an independent model, so the
// wall-clock of every algorithm scales down by the worker count while the
// budget accounting (distinct evaluations) is unchanged.
func (o *Oracle) Prefetch(ctx context.Context, coalitions []combin.Coalition, workers int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p := o.planClaims(coalitions, workers)
	if p == nil {
		return ctx.Err()
	}
	o.cache.reserve(len(p.list))
	p.done = ctx.Done()
	// The list is already deduplicated and known absent from the cache, so
	// the pool enters the miss path directly — one training per entry by
	// construction, no second lookup. A panic on a pool goroutine has no
	// caller to recover it and would end the process; fail keeps the first
	// one, siblings stop claiming, and it is re-raised below on the
	// goroutine that called Prefetch, where it reaches whatever recover
	// guards the caller (the service's job boundary turns it into a failed
	// job). A non-finite utility or a cancelled evaluation travels the same
	// way and is returned as an error.
	p.wg.Add(p.workers)
	for range p.workers {
		go p.work()
	}
	p.wg.Wait()
	if r := p.fail.Load(); r != nil {
		switch e := (*r).(type) {
		case *NonFiniteError:
			return e
		case *CancelError:
			return e.Err
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
