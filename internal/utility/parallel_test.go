package utility

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"fedshap/internal/combin"
)

func TestPrefetchWarmsCache(t *testing.T) {
	var calls int64
	o := NewOracle(5, func(s combin.Coalition) float64 {
		atomic.AddInt64(&calls, 1)
		return float64(s.Size())
	})
	var want []combin.Coalition
	combin.SubsetsOfSize(5, 2, func(s combin.Coalition) { want = append(want, s) })
	o.Prefetch(context.Background(), want, 4)
	if got := o.Evals(); got != len(want) {
		t.Errorf("prefetched %d, want %d", got, len(want))
	}
	before := atomic.LoadInt64(&calls)
	for _, s := range want {
		o.U(s)
	}
	if atomic.LoadInt64(&calls) != before {
		t.Errorf("post-prefetch queries re-evaluated")
	}
}

func TestPrefetchDeduplicates(t *testing.T) {
	var calls int64
	o := NewOracle(3, func(s combin.Coalition) float64 {
		atomic.AddInt64(&calls, 1)
		return 0
	})
	s := combin.NewCoalition(0, 1)
	o.Prefetch(context.Background(), []combin.Coalition{s, s, s, combin.Empty, combin.Empty}, 2)
	if got := atomic.LoadInt64(&calls); got != 2 {
		t.Errorf("calls = %d, want 2 (dedup)", got)
	}
}

func TestPrefetchSkipsCached(t *testing.T) {
	var calls int64
	o := NewOracle(3, func(s combin.Coalition) float64 {
		atomic.AddInt64(&calls, 1)
		return 0
	})
	o.U(combin.Empty)
	o.Prefetch(context.Background(), []combin.Coalition{combin.Empty}, 1)
	if got := atomic.LoadInt64(&calls); got != 1 {
		t.Errorf("calls = %d, want 1", got)
	}
}

func TestPrefetchEmptyInput(t *testing.T) {
	o := NewOracle(3, func(s combin.Coalition) float64 { return 0 })
	o.Prefetch(context.Background(), nil, 4) // must not hang or panic
	if o.Evals() != 0 {
		t.Errorf("evals = %d", o.Evals())
	}
}

func TestEvalBatchReturnsAlignedValues(t *testing.T) {
	var calls int64
	o := NewOracle(5, func(s combin.Coalition) float64 {
		atomic.AddInt64(&calls, 1)
		return float64(s.Size())
	})
	in := []combin.Coalition{
		combin.NewCoalition(0, 1),
		combin.Empty,
		combin.NewCoalition(0, 1), // duplicate: same value, one evaluation
		combin.NewCoalition(2, 3, 4),
	}
	got, err := o.EvalBatch(context.Background(), in, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 0, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3 (dedup)", calls)
	}
}

func TestEvalBatchCancelled(t *testing.T) {
	o := NewOracle(5, func(s combin.Coalition) float64 { return 0 })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := o.EvalBatch(ctx, []combin.Coalition{combin.Empty}, 2); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestPrefetchAllocatesPerBatch: what a cold Prefetch allocates is its
// dedupe set, its pending list and the shard tables — nothing per entry (a
// recovered value that escaped from the pool's deferred recover once cost
// one allocation per coalition).
func TestPrefetchAllocatesPerBatch(t *testing.T) {
	const n = 16
	coals := combin.AppendSubsetsUpTo(nil, n, 4)
	eval := func(s combin.Coalition) float64 { return float64(s.Size()) }
	avg := testing.AllocsPerRun(5, func() {
		if err := NewOracle(n, eval).Prefetch(context.Background(), coals, 2); err != nil {
			t.Fatal(err)
		}
	})
	if avg > float64(len(coals)/4) {
		t.Errorf("cold Prefetch of %d coalitions made %v allocations, want well under one per entry", len(coals), avg)
	}
}

// TestPrefetchStopsOnOracleCancel: once the oracle's bound context cancels
// an evaluation, every worker stops. A pool that swallowed the cancellation
// and claimed on panicked, recovered and allocated once per remaining
// entry. The first evaluation on each worker cancels, so at most one per
// worker runs. Cancellation is still no failure: Prefetch returns its own
// context's error, nil here.
func TestPrefetchStopsOnOracleCancel(t *testing.T) {
	const n = 16
	coals := combin.AppendSubsetsUpTo(nil, n, 4)
	var calls atomic.Int64
	avg := testing.AllocsPerRun(5, func() {
		calls.Store(0)
		ctx, cancel := context.WithCancel(context.Background())
		o := NewOracle(n, func(s combin.Coalition) float64 {
			calls.Add(1)
			cancel()
			return float64(s.Size())
		})
		o.SetContext(ctx)
		if err := o.Prefetch(context.Background(), coals, 2); err != nil {
			t.Fatal(err)
		}
		if c := calls.Load(); c > 2 {
			t.Fatalf("a pool of 2 ran %d evaluations on a cancelled oracle, want at most one per worker", c)
		}
	})
	if avg > float64(len(coals)/4) {
		t.Errorf("Prefetch of %d coalitions on a cancelled oracle made %v allocations, want well under one per entry", len(coals), avg)
	}
}

// TestPrefetchCancelledPlansNothing: a Prefetch whose own context or
// whose oracle's bound context is done on entry returns before it plans
// claims or pre-sizes the cache's shard tables, which cost about 200
// allocations for this list.
func TestPrefetchCancelledPlansNothing(t *testing.T) {
	const n = 16
	coals := combin.AppendSubsetsUpTo(nil, n, 4)
	done, cancel := context.WithCancel(context.Background())
	cancel()
	eval := func(s combin.Coalition) float64 { return float64(s.Size()) }
	for _, tc := range []struct {
		name       string
		ctx, bound context.Context
		want       error
	}{
		{"ctx", done, context.Background(), context.Canceled},
		{"bound", context.Background(), done, nil},
	} {
		var o *Oracle
		avg := testing.AllocsPerRun(5, func() {
			o = NewOracle(n, eval)
			o.SetContext(tc.bound)
			if err := o.Prefetch(tc.ctx, coals, 2); err != tc.want {
				t.Fatalf("%s: Prefetch = %v, want %v", tc.name, err, tc.want)
			}
		})
		if avg > 4 { // NewOracle makes 2
			t.Errorf("%s: NewOracle and a Prefetch of %d coalitions on a done context made %v allocations, want at most 4", tc.name, len(coals), avg)
		}
		if o.Evals() != 0 || o.Size() != 0 {
			t.Errorf("%s: a done context evaluated %d and cached %d coalitions", tc.name, o.Evals(), o.Size())
		}
	}
}

// claimOrder is the evaluation order Prefetch documents for a pool of the
// given width over a duplicate-free, uncached list: the list grouped by
// cache shard in list order, dealt in claims of
// max(1, len/(workers·64)) entries, round by round over the shards in the
// order 0, 5, 10, … (mod 64). It is written out from the documentation, not
// from the pool's code.
func claimOrder(list []combin.Coalition, workers int) [][]combin.Coalition {
	var shards [64][]combin.Coalition
	for _, s := range list {
		sh := s.Hash() % 64
		shards[sh] = append(shards[sh], s)
	}
	chunk := max(1, len(list)/(workers*64))
	var claims [][]combin.Coalition
	for taken := 0; taken < len(list); {
		for k := 0; k < 64; k++ {
			sh := &shards[k*5%64]
			c := (*sh)[:min(chunk, len(*sh))]
			*sh = (*sh)[len(c):]
			if len(c) > 0 {
				claims = append(claims, c)
				taken += len(c)
			}
		}
	}
	return claims
}

// TestPrefetchClaimsEveryEntryOnce covers the shard-disjoint claims at
// several widths, on a list long enough for multi-entry claims with
// duplicates and an entry cached beforehand: every entry is evaluated
// once, the OnFresh totals are 1…N once each, the cache and the counter
// match a serial U loop, every claim lies in one shard and holds at most a
// chunk, and a pool of one evaluates in the documented claim order.
func TestPrefetchClaimsEveryEntryOnce(t *testing.T) {
	const n = 16
	coals := combin.AppendSubsetsUpTo(nil, n, 4) // 2517: chunks of 39, 19 and 4 at widths 1, 2 and 8
	cached := coals[7]
	withDups := append(append([]combin.Coalition{}, coals...), coals[:300]...)
	eval := func(s combin.Coalition) float64 { return float64(s.Size()) + float64(s.Index())/1e6 }

	serial := NewOracle(n, eval)
	for _, s := range coals {
		serial.U(s)
	}

	for _, workers := range []int{1, 2, 8} {
		calls := make([]atomic.Int32, 1<<n)
		var mu sync.Mutex
		var order []combin.Coalition
		o := NewOracle(n, func(s combin.Coalition) float64 {
			calls[s.Index()].Add(1)
			mu.Lock()
			order = append(order, s)
			mu.Unlock()
			return eval(s)
		})
		totals := make([]atomic.Int32, len(coals)+1)
		o.OnFresh(func(_ combin.Coalition, _ float64, total int) { totals[total].Add(1) })
		o.U(cached) // already cached (total 1): the pool must not see it
		if err := o.Prefetch(context.Background(), withDups, workers); err != nil {
			t.Fatal(err)
		}

		for _, s := range coals {
			if got := calls[s.Index()].Load(); got != 1 {
				t.Fatalf("workers=%d: coalition %v evaluated %d times, want 1", workers, s, got)
			}
		}
		for total := 1; total < len(totals); total++ {
			if got := totals[total].Load(); got != 1 {
				t.Fatalf("workers=%d: OnFresh reported total %d %d times, want once", workers, total, got)
			}
		}
		if o.Evals() != serial.Evals() {
			t.Errorf("workers=%d: Evals = %d, serial %d", workers, o.Evals(), serial.Evals())
		}
		if got, want := o.Snapshot(), serial.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: Snapshot differs from the serial loop's (%d vs %d entries)", workers, len(got), len(want))
		}

		// The claims themselves, on the same list with nothing cached.
		p := NewOracle(n, eval).planClaims(withDups, workers)
		var want []combin.Coalition
		for _, c := range claimOrder(coals, workers) {
			want = append(want, c...)
		}
		var got []combin.Coalition
		for c := 0; c < p.claims; c++ {
			lo, hi := p.claim(c)
			if hi-lo > p.chunk {
				t.Fatalf("workers=%d: claim %d holds %d entries, over the chunk of %d", workers, c, hi-lo, p.chunk)
			}
			for _, s := range p.list[lo:hi] {
				if shardOf(s.Hash()) != shardOf(p.list[lo].Hash()) {
					t.Fatalf("workers=%d: claim %d spans shards %d and %d", workers, c, shardOf(p.list[lo].Hash()), shardOf(s.Hash()))
				}
			}
			got = append(got, p.list[lo:hi]...)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: the claims do not deal the list in the documented order", workers)
		}

		// A pool of one evaluates claim by claim, in the documented order
		// of what was pending: the list less the entry cached beforehand.
		if workers == 1 {
			var wantOrder []combin.Coalition
			pending := slices.DeleteFunc(slices.Clone(coals), func(s combin.Coalition) bool { return s == cached })
			for _, c := range claimOrder(pending, 1) {
				wantOrder = append(wantOrder, c...)
			}
			if !reflect.DeepEqual(order[1:], wantOrder) {
				t.Errorf("a pool of one did not evaluate in the documented claim order")
			}
		}
	}
}

// TestPoolPanicReachesCaller: a utility that panics on a pool goroutine
// must not end the process. The pool stops claiming, drains, and re-raises
// the first panic on the goroutine that called it — where the service's job
// boundary recovers it into a failed job.
func TestPoolPanicReachesCaller(t *testing.T) {
	const n = 12
	coals := combin.AppendSubsetsUpTo(nil, n, 3)
	bad := coals[len(coals)/3]
	// A pool of one evaluates in the documented claim order, so what it
	// evaluates before the panic is the entries ahead of bad in that order.
	badAt := 0
	for _, c := range claimOrder(coals, 1) {
		if i := slices.Index(c, bad); i >= 0 {
			badAt += i
			break
		}
		badAt += len(c)
	}
	newOracle := func(evals *atomic.Int64) *Oracle {
		return NewOracle(n, func(s combin.Coalition) float64 {
			if s == bad {
				panic("evaluation exploded")
			}
			evals.Add(1)
			return 1
		})
	}
	caught := func(fn func()) (r any) {
		defer func() { r = recover() }()
		fn()
		return nil
	}

	// Both entries to the pool: Prefetch itself and EvalBatch, which the
	// anytime drive calls chunk by chunk. How many siblings finish between
	// the panic and the moment they see it is the scheduler's business (on
	// an oversubscribed box they can finish the list), so the count is
	// pinned where it is exact: a pool of one claims nothing after its
	// failure, and evaluates exactly the entries claimed before the bad one.
	var evals atomic.Int64
	for _, entry := range []struct {
		name string
		run  func(o *Oracle, workers int)
	}{
		{"Prefetch", func(o *Oracle, w int) { o.Prefetch(context.Background(), coals, w) }},
		{"EvalBatch", func(o *Oracle, w int) { o.EvalBatch(context.Background(), coals, w) }},
	} {
		for _, workers := range []int{4, 1} {
			evals.Store(0)
			o := newOracle(&evals)
			if r := caught(func() { entry.run(o, workers) }); r != "evaluation exploded" {
				t.Fatalf("%s workers=%d: recovered %v, want the utility's panic", entry.name, workers, r)
			}
			if got := evals.Load(); workers == 1 && got != int64(badAt) {
				t.Errorf("%s: a pool of one evaluated %d coalitions, want the %d before the panic", entry.name, got, badAt)
			}
			if o.Cached(bad) {
				t.Errorf("%s workers=%d cached the panicking coalition", entry.name, workers)
			}
		}
	}

	// Cancellation is not a failure: it still comes back as an error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := newOracle(&evals)
	o.SetContext(ctx)
	if r := caught(func() {
		if err := o.Prefetch(context.Background(), coals[:8], 2); err != nil {
			t.Errorf("Prefetch under a cancelled oracle context: %v", err)
		}
	}); r != nil {
		t.Fatalf("cancellation escaped the pool as a panic: %v", r)
	}
}
