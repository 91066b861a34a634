package utility

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"fedshap/internal/combin"
)

// Benchmarks comparing the coalition cache — 64 append-only flat tables
// read without a lock — against the retained reference, one mutex over one
// Go map, under a Prefetch-shaped workload: a pool of workers racing
// through a coalition list, each doing a lookup, a (cheap) evaluation on
// miss, and an insert. The flat shards must not regress single-threaded,
// should scale at GOMAXPROCS workers, and a hot read must cost no shared
// write at all (the RWMutex shards they replaced paid two reader-count
// atomics per lookup).

// coalitionCache is the seam both implementations share.
type coalitionCache interface {
	get(s combin.Coalition) (float64, bool)
	put(s combin.Coalition, h uint64, v float64, fresh bool) (id int, added bool)
}

// mutexCache is the reference: the pre-sharding Oracle cache, one mutex
// over one map.
type mutexCache struct {
	mu sync.Mutex
	m  map[combin.Coalition]float64
}

func newMutexCache() *mutexCache {
	return &mutexCache{m: make(map[combin.Coalition]float64)}
}

func (c *mutexCache) get(s combin.Coalition) (float64, bool) {
	c.mu.Lock()
	v, ok := c.m[s]
	c.mu.Unlock()
	return v, ok
}

func (c *mutexCache) put(s combin.Coalition, _ uint64, v float64, _ bool) (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[s]; ok {
		return 0, false
	}
	c.m[s] = v
	return 0, true
}

var _ coalitionCache = (*shardedCache)(nil)

var cacheImpls = []struct {
	name string
	mk   func() coalitionCache
}{
	{"sharded", func() coalitionCache { return newShardedCache() }},
	{"mutex", func() coalitionCache { return newMutexCache() }},
}

// benchCoalitions builds a deterministic working set over 24 players.
func benchCoalitions(n int) []combin.Coalition {
	out := make([]combin.Coalition, n)
	for i := range out {
		out[i] = combin.FromMask(uint64(i) * 2654435761 % (1 << 24))
	}
	return out
}

// prefetchFill runs the Prefetch inner loop over the coalition list on a
// bounded worker pool against the given cache.
func prefetchFill(c coalitionCache, coals []combin.Coalition, workers int) {
	work := make(chan combin.Coalition)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				if _, ok := c.get(s); ok {
					continue
				}
				c.put(s, s.Hash(), float64(s.Size()), true)
			}
		}()
	}
	for _, s := range coals {
		work <- s
	}
	close(work)
	wg.Wait()
}

// benchWorkerCounts returns deduplicated worker counts: single-threaded,
// GOMAXPROCS, and an oversubscribed pool (which exposes lock-handoff costs
// even on small machines).
func benchWorkerCounts() []int {
	counts := []int{1, runtime.GOMAXPROCS(0), 4 * runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	out := counts[:0]
	for _, w := range counts {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// BenchmarkCacheFill measures a full Prefetch-style fill at increasing
// worker counts.
func BenchmarkCacheFill(b *testing.B) {
	coals := benchCoalitions(4096)
	for _, impl := range cacheImpls {
		for _, workers := range benchWorkerCounts() {
			b.Run(fmt.Sprintf("impl=%s/workers=%d", impl.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					prefetchFill(impl.mk(), coals, workers)
				}
			})
		}
	}
}

// BenchmarkCacheHotRead measures warm-cache lookups — the regime every
// valuation algorithm's sequential bookkeeping pass runs in after a
// prefetch — serially and with all cores hitting the cache at once.
func BenchmarkCacheHotRead(b *testing.B) {
	coals := benchCoalitions(4096)
	for _, impl := range cacheImpls {
		c := impl.mk()
		for _, s := range coals {
			c.put(s, s.Hash(), 1, true)
		}
		b.Run("impl="+impl.name+"/serial", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.get(coals[i%len(coals)])
			}
		})
		b.Run("impl="+impl.name+"/parallel", func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					c.get(coals[i%len(coals)])
					i++
				}
			})
		})
	}
}

// BenchmarkOraclePrefetch exercises the real Oracle end to end with a
// trivial evaluation function, so the cache is the dominant cost.
func BenchmarkOraclePrefetch(b *testing.B) {
	var coals []combin.Coalition
	for size := 0; size <= 3; size++ {
		combin.SubsetsOfSize(18, size, func(s combin.Coalition) { coals = append(coals, s) })
	}
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := NewOracle(18, func(s combin.Coalition) float64 { return 0 })
				if err := o.Prefetch(context.Background(), coals, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOraclePrefetchCancellable measures the pool where its shared
// cache lines cost the most: 6,000 coalitions of a game as cheap as
// sampler-free's, v(S) = (Σ_{i∈S} wᵢ)² over 24 players, on a cancellable
// context bound to the oracle too, so both per-entry cancellation checks
// see a context whose Err would lock. Beside wall time it reports the
// process's CPU time per call (cpu-ns/op), where contention shows first: a
// pool of two must cost well under twice the CPU of a pool of one.
func BenchmarkOraclePrefetchCancellable(b *testing.B) {
	const n = 24
	rng := rand.New(rand.NewSource(1))
	w := make([]float64, n)
	for i := range w {
		w[i] = 0.5 + rng.Float64()
	}
	eval := func(s combin.Coalition) float64 {
		t := 0.0
		for i := range n {
			if s.Has(i) {
				t += w[i]
			}
		}
		return t * t
	}
	coals := make([]combin.Coalition, 6000)
	for i := range coals {
		coals[i] = combin.FromMask(rng.Uint64() & (1<<n - 1))
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cpu0, ok := processCPU()
			b.ResetTimer()
			for range b.N {
				o := NewOracle(n, eval)
				if err := o.Prefetch(ctx, coals, workers); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if cpu1, _ := processCPU(); ok {
				b.ReportMetric(float64(cpu1-cpu0)/float64(b.N), "cpu-ns/op")
			}
		})
	}
}

// BenchmarkRunViewWarmHits is a reduce pass over a prefetched plan at
// sampler-free's shape: a fresh view serving 6000 warm coalitions, each
// requested twice (every sampler repeats requests), with a Cached probe
// per request as the draw loops make.
func BenchmarkRunViewWarmHits(b *testing.B) {
	coals := benchCoalitions(6000)
	o := NewOracle(24, func(s combin.Coalition) float64 { return float64(s.Size()) })
	if err := o.Prefetch(context.Background(), coals, 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := NewRunView(o)
		for k := 0; k < 2; k++ {
			for _, s := range coals {
				v.U(s)
				v.Cached(s)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*4*len(coals)), "ns/request")
}
