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
//   - Prefetch is the pool: it drops the already-cached entries of a
//     known list, regroups the rest by cache shard, deduplicates each
//     shard's group and lets the workers claim them off an atomic cursor.
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
// tables that no other running claim touches. For the same reason there is
// no shared fresh-evaluation counter: each shard table counts its own fresh
// inserts under the mutex the insert already holds, on the line the insert
// already writes, and Oracle.Evals sums the counts (the shard headers stay
// 16 bytes, so the stride argument below holds). Only an oracle with
// OnFresh hooks keeps a running total for them. The per-entry cancellation
// checks read Done channels instead of calling Err, which locks the
// context's mutex (as of Go 1.24).

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

// planClaims drops the cached coalitions, groups the rest by shard and
// deduplicates them for a pool of at most workers (<= 0 selects
// GOMAXPROCS). It returns nil when nothing is left to evaluate. Each
// coalition is hashed and looked up once; the grouping is a counting sort
// over the shards, and the dedupe runs inside each shard's bucket with one
// set sized to the longest bucket, keeping first occurrences, so a shard's
// entries stay in list order.
func (o *Oracle) planClaims(coalitions []combin.Coalition, workers int) *claimPool {
	// shard[i] is coalition i's cache shard, or numShards when it is cached.
	shard := make([]uint8, len(coalitions))
	var sizes [numShards]int32
	pending := 0
	for i, s := range coalitions {
		h := s.Hash()
		shard[i] = numShards
		if _, _, ok := o.cache.lookup(s, h); !ok {
			shard[i] = uint8(shardOf(h))
			sizes[shardOf(h)]++
			pending++
		}
	}
	if pending == 0 {
		return nil
	}
	p := &claimPool{o: o, list: make([]combin.Coalition, pending)}
	var at [numShards + 1]int32 // bucket bounds, then each bucket's write cursor
	longest := int32(0)
	for sh, size := range sizes {
		at[sh+1] = at[sh] + size
		longest = max(longest, size)
	}
	bounds := at
	for i, s := range coalitions {
		if sh := shard[i]; sh < numShards {
			p.list[at[sh]] = s
			at[sh]++
		}
	}
	seen := combin.NewSet(int(longest))
	w := int32(0)
	longest = 0 // now of the deduplicated buckets
	for sh := range numShards {
		p.start[sh] = w
		seen.Reset()
		for _, s := range p.list[bounds[sh]:bounds[sh+1]] {
			if _, first := seen.Add(s); first {
				p.list[w] = s
				w++
			}
		}
		longest = max(longest, w-p.start[sh])
	}
	p.start[numShards] = w
	p.list = p.list[:w]
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p.workers = min(workers, len(p.list))
	// A claim takes a chunk: one entry when the list is short (every entry
	// a training run), dozens when it is thousands long (cheap utilities,
	// where a shared counter bumped per entry is the cost).
	p.chunk = max(1, len(p.list)/(p.workers*64))
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
	p.o.fresh(s, s.Hash())
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
// anything. The first panic of an evaluation stops the pool too: an *Abort
// (a non-finite utility, an evaluation function that waits on a context of
// its own, as the fleet session does) is returned as the Err it carries,
// and any other panic is re-raised on the calling goroutine.
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
	// job). An *Abort travels the same way and is returned as its Err.
	p.wg.Add(p.workers)
	for range p.workers {
		go p.work()
	}
	p.wg.Wait()
	if r := p.fail.Load(); r != nil {
		if a, ok := (*r).(*Abort); ok {
			return a.Err
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
