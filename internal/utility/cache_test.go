package utility

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"fedshap/internal/combin"
)

// TestShardedCacheConcurrent hammers one oracle from many goroutines doing
// mixed lookups, evaluations, prefetches and snapshots — run with -race.
func TestShardedCacheConcurrent(t *testing.T) {
	const n = 12
	var calls int64
	o := NewOracle(n, func(s combin.Coalition) float64 {
		atomic.AddInt64(&calls, 1)
		return float64(s.Size())
	})
	var coals []combin.Coalition
	for size := 0; size <= 3; size++ {
		combin.SubsetsOfSize(n, size, func(s combin.Coalition) { coals = append(coals, s) })
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := coals[(g*31+i*7)%len(coals)]
				if got := o.U(s); got != float64(s.Size()) {
					t.Errorf("U(%v) = %v, want %v", s, got, s.Size())
					return
				}
				o.Cached(s)
				if i%50 == 0 {
					o.Snapshot()
					o.Evals()
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := o.Prefetch(context.Background(), coals, 4); err != nil {
			t.Errorf("Prefetch: %v", err)
		}
	}()
	wg.Wait()

	if got := o.Evals(); got != len(coals) {
		t.Errorf("Evals = %d, want %d distinct", got, len(coals))
	}
	if got := o.Size(); got != len(coals) {
		t.Errorf("Size = %d, want %d", got, len(coals))
	}
}

// TestOracleCancellation proves a run whose context is cancelled stops
// issuing fresh evaluations while still serving cached utilities.
func TestOracleCancellation(t *testing.T) {
	var calls int64
	o := NewOracle(6, func(s combin.Coalition) float64 {
		atomic.AddInt64(&calls, 1)
		return 1
	})
	ctx, cancel := context.WithCancel(context.Background())
	v := NewRunView(o)
	v.SetContext(ctx)

	warm := combin.NewCoalition(0, 1)
	v.U(warm)
	cancel()

	if got := v.U(warm); got != 1 {
		t.Errorf("cached lookup after cancel = %v, want 1", got)
	}
	func() {
		defer func() {
			r := recover()
			a, ok := r.(*Abort)
			if !ok {
				t.Fatalf("fresh eval after cancel: recovered %v, want *Abort", r)
			}
			if !errors.Is(a, context.Canceled) {
				t.Errorf("errors.Is(Abort, context.Canceled) = false")
			}
		}()
		v.U(combin.NewCoalition(2))
		t.Error("fresh eval after cancel did not panic")
	}()
	if got := atomic.LoadInt64(&calls); got != 1 {
		t.Errorf("eval calls = %d, want 1 (no fresh evals after cancel)", got)
	}
}

// TestPrefetchCancelledMidRun cancels while a prefetch pool is working and
// checks that the pool drains without finishing the plan.
func TestPrefetchCancelledMidRun(t *testing.T) {
	const n = 10
	ctx, cancel := context.WithCancel(context.Background())
	var evals int64
	o := NewOracle(n, func(s combin.Coalition) float64 {
		if atomic.AddInt64(&evals, 1) == 8 {
			cancel()
		}
		return 0
	})
	var coals []combin.Coalition
	for size := 0; size <= 2; size++ {
		combin.SubsetsOfSize(n, size, func(s combin.Coalition) { coals = append(coals, s) })
	}
	err := o.Prefetch(ctx, coals, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Prefetch error = %v, want context.Canceled", err)
	}
	got := atomic.LoadInt64(&evals)
	if got >= int64(len(coals)) {
		t.Errorf("prefetch evaluated all %d coalitions despite cancellation", len(coals))
	}
	// The pool must have stopped promptly: at most the 8 trigger evals plus
	// one in-flight eval per worker.
	if got > 8+2 {
		t.Errorf("prefetch issued %d evals after cancellation trigger at 8", got)
	}
}

// TestWarmDoesNotCharge loads utilities without consuming budget.
func TestWarmDoesNotCharge(t *testing.T) {
	o := NewOracle(4, func(s combin.Coalition) float64 { return -1 })
	entries := map[combin.Coalition]float64{
		combin.Empty:           0.1,
		combin.NewCoalition(0): 0.5,
	}
	if added := o.Warm(entries); added != 2 {
		t.Fatalf("Warm added %d, want 2", added)
	}
	if o.Evals() != 0 {
		t.Errorf("Evals = %d after Warm, want 0", o.Evals())
	}
	if got := o.U(combin.NewCoalition(0)); got != 0.5 {
		t.Errorf("warmed utility = %v, want 0.5 (not re-evaluated)", got)
	}
	if o.Evals() != 0 {
		t.Errorf("Evals = %d after warmed lookup, want 0", o.Evals())
	}
}

func TestStoreRoundTrip(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const fp = "abc123"
	s1, s2 := combin.NewCoalition(0, 2), combin.NewCoalition(1).With(100)
	if err := st.Append(fp, s1, 0.25); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(fp, s2, 0.75); err != nil {
		t.Fatal(err)
	}
	got, err := st.Load(fp)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[s1] != 0.25 || got[s2] != 0.75 {
		t.Errorf("Load = %v", got)
	}
	// Unknown fingerprint loads empty, not an error.
	if empty, err := st.Load("deadbeef"); err != nil || len(empty) != 0 {
		t.Errorf("Load(missing) = %v, %v", empty, err)
	}
}

func TestStoreRejectsPathTraversal(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, fp := range []string{"", "../evil", "a/b", `a\b`, "dot.dot"} {
		if _, err := st.Load(fp); err == nil {
			t.Errorf("Load(%q) accepted", fp)
		}
		if err := st.Append(fp, combin.Empty, 0); err == nil {
			t.Errorf("Append(%q) accepted", fp)
		}
	}
}

// TestStoreSkipsTornLine simulates a crash mid-append: the torn tail line
// is skipped, everything before it loads.
func TestStoreSkipsTornLine(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	const fp = "ffee00"
	if err := st.Append(fp, combin.NewCoalition(3), 0.5); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, fp+".jsonl"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"lo":9,"u":0.`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got, err := st2.Load(fp)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[combin.NewCoalition(3)] != 0.5 {
		t.Errorf("Load after torn line = %v", got)
	}
}

// TestStoreAttach warms an oracle from disk (free) and writes fresh
// evaluations through, so a second attach starts fully warm.
func TestStoreAttach(t *testing.T) {
	dir := t.TempDir()
	const fp = "0a0b0c"
	var calls int64
	mkOracle := func() *Oracle {
		return NewOracle(5, func(s combin.Coalition) float64 {
			atomic.AddInt64(&calls, 1)
			return float64(s.Size()) * 0.125
		})
	}

	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	o1 := mkOracle()
	if warmed, err := st.Attach(o1, fp); err != nil || warmed != 0 {
		t.Fatalf("first Attach = %d, %v", warmed, err)
	}
	var plan []combin.Coalition
	combin.SubsetsOfSize(5, 2, func(s combin.Coalition) { plan = append(plan, s) })
	for _, s := range plan {
		o1.U(s)
	}
	if o1.Evals() != len(plan) {
		t.Fatalf("first run evals = %d, want %d", o1.Evals(), len(plan))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a process restart: fresh store handle, fresh oracle.
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	o2 := mkOracle()
	warmed, err := st2.Attach(o2, fp)
	if err != nil {
		t.Fatal(err)
	}
	if warmed != len(plan) {
		t.Fatalf("second Attach warmed %d, want %d", warmed, len(plan))
	}
	before := atomic.LoadInt64(&calls)
	for _, s := range plan {
		o2.U(s)
	}
	if atomic.LoadInt64(&calls) != before {
		t.Error("warm oracle re-evaluated persisted coalitions")
	}
	if o2.Evals() != 0 {
		t.Errorf("warm run fresh evals = %d, want 0", o2.Evals())
	}
}

// sameShardKeys returns count distinct coalitions over n players that all
// hash into shard 0.
func sameShardKeys(n, count int) []combin.Coalition {
	out := make([]combin.Coalition, 0, count)
	for m := uint64(0); len(out) < count; m++ {
		s := combin.FromMask(m)
		if n > 64 {
			s = combin.FromWords(m, m*0x9e3779b97f4a7c15>>1) // occupy the high word too
		}
		if s.Hash()&(numShards-1) == 0 {
			out = append(out, s)
		}
	}
	return out
}

// TestCacheReadsDuringReplacement is the lock-free read path's contract,
// for -race: while two writers fill one shard through several table
// replacements (and reserve forces more), readers only ever see a key with
// its own value, and every published key stays readable.
func TestCacheReadsDuringReplacement(t *testing.T) {
	keys := sameShardKeys(100, 1500)
	val := func(s combin.Coalition) float64 { lo, hi := s.Words(); return float64(lo%9973) + float64(hi%7) }
	c := newShardedCache()

	var published atomic.Int64 // keys[:published] are inserted by writer 0
	done := make(chan struct{})
	var readers, writers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := r; ; i += 7 {
				select {
				case <-done:
					return
				default:
				}
				n := int(published.Load())
				s := keys[i%len(keys)]
				v, ok := c.get(s)
				if ok && v != val(s) {
					t.Errorf("get(%v) = %v, want its own value %v", s, v, val(s))
					return
				}
				// Writer 0 inserts in order and publishes its progress
				// after each insert: everything below n must be visible.
				if n > 0 {
					s = keys[(i%n)/2*2]
					if v, ok := c.get(s); !ok || v != val(s) {
						t.Errorf("published key %v reads (%v, %v), want (%v, true)", s, v, ok, val(s))
						return
					}
				}
			}
		}(r)
	}
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := w; i < len(keys); i += 2 {
				if _, added := c.put(keys[i], keys[i].Hash(), val(keys[i]), false); !added {
					t.Errorf("put(%v) lost to nobody", keys[i])
				}
				if _, added := c.put(keys[i], keys[i].Hash(), -1, false); added {
					t.Errorf("second put(%v) overwrote", keys[i])
				}
				if w == 0 {
					published.Store(int64(i + 1))
				}
				if i%400 == 0 {
					c.reserve(numShards * (i + 100)) // forces a replacement mid-fill
				}
			}
		}(w)
	}
	writers.Wait()
	close(done)
	readers.Wait()

	if got, _ := c.counts(); got != len(keys) {
		t.Fatalf("len = %d, want %d", got, len(keys))
	}
	for _, s := range keys {
		if v, ok := c.get(s); !ok || v != val(s) {
			t.Fatalf("after fill: get(%v) = (%v, %v), want (%v, true)", s, v, ok, val(s))
		}
	}
}

// TestCacheWarmSnapshotResetRoundTrip checks the map-typed seams over the
// flat shards: what Warm loads, Snapshot and U return, and a second Warm of
// the same entries adds nothing.
func TestCacheWarmSnapshotResetRoundTrip(t *testing.T) {
	const n = 100
	o := NewOracle(n, func(s combin.Coalition) float64 { return -1 })
	entries := make(map[combin.Coalition]float64)
	for i, s := range sameShardKeys(n, 300) { // one crowded shard ...
		entries[s] = float64(i)
	}
	for m := uint64(0); m < 3000; m++ { // ... and every other shard filled
		entries[combin.FromWords(m*2654435761, m)] = -float64(m)
	}
	if added := o.Warm(entries); added != len(entries) {
		t.Fatalf("Warm added %d, want %d", added, len(entries))
	}
	if added := o.Warm(entries); added != 0 {
		t.Fatalf("second Warm added %d, want 0", added)
	}
	if o.Size() != len(entries) || o.Evals() != 0 {
		t.Fatalf("Size = %d, Evals = %d, want %d and 0", o.Size(), o.Evals(), len(entries))
	}
	snap := o.Snapshot()
	if len(snap) != len(entries) {
		t.Fatalf("Snapshot has %d entries, want %d", len(snap), len(entries))
	}
	for s, want := range entries {
		if got, ok := snap[s]; !ok || got != want {
			t.Fatalf("Snapshot[%v] = (%v, %v), want %v", s, got, ok, want)
		}
		if got := o.U(s); got != want {
			t.Fatalf("U(%v) = %v, want warmed %v", s, got, want)
		}
	}
}

// TestWarmLookupDoesNotAllocate pins the hit path every sampler's reduce
// pass runs once per request.
func TestWarmLookupDoesNotAllocate(t *testing.T) {
	o := NewOracle(24, func(s combin.Coalition) float64 { return float64(s.Size()) })
	coals := benchCoalitions(512)
	if err := o.Prefetch(context.Background(), coals, 2); err != nil {
		t.Fatal(err)
	}
	i := 0
	if avg := testing.AllocsPerRun(1000, func() {
		o.U(coals[i%len(coals)])
		i++
	}); avg != 0 {
		t.Errorf("warm Oracle.U allocates %v per call, want 0", avg)
	}
}

// TestCacheAllocatesBySize pins the two sizing rules the small workloads
// depend on: a shard owns no table before its first insert, and a batch the
// first tables can hold reserves nothing.
func TestCacheAllocatesBySize(t *testing.T) {
	tables := func(c *shardedCache) int {
		n := 0
		for i := range c.shards {
			if c.shards[i].table.Load() != nil {
				n++
			}
		}
		return n
	}
	c := newShardedCache()
	c.reserve(numShards * firstTableEntries)
	if got := tables(c); got != 0 {
		t.Fatalf("%d shard tables after a small reserve, want 0", got)
	}
	c.put(combin.Empty, combin.Empty.Hash(), 1, false)
	if got := tables(c); got != 1 {
		t.Fatalf("%d shard tables after one insert, want 1", got)
	}
	c.reserve(6000)
	if got := tables(c); got != numShards {
		t.Fatalf("%d shard tables after a large reserve, want %d", got, numShards)
	}
	if v, ok := c.get(combin.Empty); !ok || v != 1 {
		t.Fatalf("entry lost across reserve: (%v, %v)", v, ok)
	}
	// A reserved shard takes its share of the batch without replacement.
	before := c.shards[0].table.Load()
	for _, s := range sameShardKeys(24, 6000/numShards) {
		c.put(s, s.Hash(), 0, false)
	}
	if c.shards[0].table.Load() != before {
		t.Error("reserved shard replaced its table while filling to its share")
	}
}
