package utility

import (
	"context"
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

// TestPrefetchClaimsEveryEntryOnce covers the chunked claim: a list long
// enough for multi-entry chunks, with a tail shorter than a chunk, is
// evaluated exactly once per coalition.
func TestPrefetchClaimsEveryEntryOnce(t *testing.T) {
	const n = 16
	coals := combin.AppendSubsetsUpTo(nil, n, 4) // 2517: chunks of 13 at 3 workers
	calls := make([]atomic.Int32, 1<<n)
	o := NewOracle(n, func(s combin.Coalition) float64 {
		calls[s.Index()].Add(1)
		return float64(s.Size())
	})
	o.U(coals[5]) // already cached: the pool must not see it
	withDups := append(append([]combin.Coalition{}, coals...), coals[:100]...)
	if err := o.Prefetch(context.Background(), withDups, 3); err != nil {
		t.Fatal(err)
	}
	for _, s := range coals {
		if got := calls[s.Index()].Load(); got != 1 {
			t.Fatalf("coalition %v evaluated %d times, want 1", s, got)
		}
	}
	if o.Evals() != len(coals) || o.Size() != len(coals) {
		t.Errorf("Evals = %d, Size = %d, want %d", o.Evals(), o.Size(), len(coals))
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

// TestPoolPanicReachesCaller: a utility that panics on a pool goroutine
// must not end the process. The pool stops claiming, drains, and re-raises
// the first panic on the goroutine that called it — where the service's job
// boundary recovers it into a failed job.
func TestPoolPanicReachesCaller(t *testing.T) {
	const n = 12
	coals := combin.AppendSubsetsUpTo(nil, n, 3)
	badAt := len(coals) / 3
	bad := coals[badAt]
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
	// failure, and evaluates exactly the entries before the bad one.
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
