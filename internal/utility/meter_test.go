package utility

import (
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"fedshap/internal/combin"
)

// Tests of the RunView budget meter, which is keyed by cache entry id: a
// view's Evals and Cached must equal a plain map of what the run requested,
// however the oracle's tables grow underneath it.

// meterValue is a cheap deterministic utility over 24 players. Warm loads
// the same values, so an entry reads equal whoever inserted it.
func meterValue(s combin.Coalition) float64 {
	return float64(s.Size()) + float64(s.Index()%997)/1e3
}

// meterUniverse returns count distinct coalitions over 24 players in a
// seeded order.
func meterUniverse(count int, seed int64) []combin.Coalition {
	rng := rand.New(rand.NewSource(seed))
	set := combin.NewSet(count)
	for set.Len() < count {
		set.Add(combin.FromMask(rng.Uint64() & (1<<24 - 1)))
	}
	return set.Keys()
}

func utilityMap(list []combin.Coalition) map[combin.Coalition]float64 {
	m := make(map[combin.Coalition]float64, len(list))
	for _, s := range list {
		m[s] = meterValue(s)
	}
	return m
}

// entryIDs returns the cache entry id of every listed coalition.
func entryIDs(t *testing.T, o *Oracle, list []combin.Coalition) []int {
	t.Helper()
	ids := make([]int, len(list))
	for i, s := range list {
		_, id, ok := o.cache.lookup(s, s.Hash())
		if !ok {
			t.Fatalf("%v is not cached", s)
		}
		ids[i] = id
	}
	return ids
}

// shardTables returns each shard's current table.
func shardTables(o *Oracle) (tables [numShards]*cacheTable) {
	for sh := range tables {
		tables[sh] = o.cache.shards[sh].table.Load()
	}
	return tables
}

// TestRunViewMeterUnderConcurrentInserts drives seeded request streams with
// repeats through three views while Warm and a width-2 Prefetch insert into
// the same oracle. Before the views start, Warm doubles every shard's first
// table and a Prefetch reserves, replacing every table again; while they
// run, more of both outgrow every shard's table once more. After each
// request a view's Evals and Cached equal a map of its requests, and the
// entry ids recorded before the growth are unchanged after it.
func TestRunViewMeterUnderConcurrentInserts(t *testing.T) {
	universe := meterUniverse(12000, 1)
	warm0, prefetch0 := universe[:2000], universe[2000:5000]
	warm1, prefetch1 := universe[5000:7000], universe[7000:10000]
	// universe[10000:] is inserted only by the views' own misses.
	o := NewOracle(24, meterValue)
	early := NewRunView(o) // opened on the empty oracle: its bitset grows by doubling

	warmed := o.Warm(utilityMap(warm0))
	// Warm reserves nothing, so a table past the first one's capacity was
	// doubled.
	for sh, t0 := range shardTables(o) {
		if t0 == nil || len(t0.entries) < 2*firstTableEntries {
			t.Fatalf("shard %d did not double its first table", sh)
		}
	}
	doubled := shardTables(o)
	if err := o.Prefetch(context.Background(), slices.Concat(prefetch0, prefetch0[:300]), 2); err != nil {
		t.Fatal(err)
	}
	reserved := shardTables(o)
	for sh := range reserved {
		if reserved[sh] == doubled[sh] {
			t.Fatalf("shard %d kept its table through a reserving Prefetch", sh)
		}
	}
	ids0 := entryIDs(t, o, universe[:5000])

	var wg sync.WaitGroup
	stream := func(v *RunView, seed int64) {
		defer wg.Done()
		if v == nil {
			v = NewRunView(o) // presized for what the oracle holds now
		}
		rng := rand.New(rand.NewSource(seed))
		requested := make(map[combin.Coalition]bool)
		var order []combin.Coalition
		for i := 0; i < 4000; i++ {
			s := universe[rng.Intn(len(universe))]
			if i%3 == 2 {
				s = order[rng.Intn(len(order))] // a repeat
			}
			if u := v.U(s); u != meterValue(s) {
				t.Errorf("view %d: U(%v) = %v, want %v", seed, s, u, meterValue(s))
				return
			}
			if !requested[s] {
				requested[s] = true
				order = append(order, s)
			}
			if v.Evals() != len(requested) || !v.Cached(s) {
				t.Errorf("view %d, request %d: Evals = %d, Cached = %v; want %d, true", seed, i, v.Evals(), v.Cached(s), len(requested))
				return
			}
			if probe := universe[rng.Intn(len(universe))]; v.Cached(probe) != requested[probe] {
				t.Errorf("view %d, request %d: Cached(%v) = %v, want %v", seed, i, probe, !requested[probe], requested[probe])
				return
			}
		}
	}
	wg.Add(3)
	go stream(early, 1)
	go stream(nil, 2)
	go stream(nil, 3)
	warmed += o.Warm(utilityMap(warm1))
	if err := o.Prefetch(context.Background(), prefetch1, 2); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	// The final entry set does not depend on the interleaving: a shard
	// holding more entries than its table had room for when the views
	// started replaced that table while they read.
	for sh, t1 := range shardTables(o) {
		o.cache.shards[sh].mu.Lock()
		n := t1.n
		o.cache.shards[sh].mu.Unlock()
		if n <= len(reserved[sh].entries) {
			t.Fatalf("shard %d holds %d entries, within the %d its table had when the views started", sh, n, len(reserved[sh].entries))
		}
	}
	for i, id := range entryIDs(t, o, universe[:5000]) {
		if id != ids0[i] {
			t.Fatalf("entry %v moved from id %d to %d as its shard grew", universe[i], ids0[i], id)
		}
	}
	all := make(map[int]bool)
	total, longest := o.cache.counts()
	for _, id := range entryIDs(t, o, universe[:10000]) {
		if all[id] || id >= longest*numShards {
			t.Fatalf("entry id %d repeated or past the bound %d", id, longest*numShards)
		}
		all[id] = true
	}
	if o.Evals() != total-warmed {
		t.Errorf("oracle Evals = %d, want the %d entries less the %d warmed", o.Evals(), total, warmed)
	}
}

// TestRunViewCountsCancelledMiss: a miss is charged before the
// cancellation check, so a cancelled miss counts once and leaves its
// coalition uncached; hits are still answered and charged once each.
func TestRunViewCountsCancelledMiss(t *testing.T) {
	universe := meterUniverse(3, 2)
	o := NewOracle(24, meterValue)
	o.Warm(utilityMap(universe[:2]))
	v := NewRunView(o)
	v.U(universe[0])
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	v.SetContext(ctx)
	func() {
		defer func() {
			if a, ok := recover().(*Abort); !ok || !errors.Is(a, context.Canceled) {
				t.Fatalf("cancelled miss panicked with %v, want an *Abort", a)
			}
		}()
		v.U(universe[2])
	}()
	if v.Evals() != 2 || v.Cached(universe[2]) || o.Cached(universe[2]) {
		t.Fatalf("after a cancelled miss: Evals = %d, view Cached = %v, oracle Cached = %v; want 2, false, false",
			v.Evals(), v.Cached(universe[2]), o.Cached(universe[2]))
	}
	v.U(universe[1])
	v.U(universe[0])
	if v.Evals() != 3 {
		t.Fatalf("Evals = %d after two more hits, one a repeat; want 3", v.Evals())
	}
}

// TestRunViewWarmHitsAllocate pins a reduce pass over a prefetched plan:
// the view and its bitset, presized for every entry, are all it allocates.
func TestRunViewWarmHitsAllocate(t *testing.T) {
	coals := meterUniverse(6000, 3)
	o := NewOracle(24, meterValue)
	if err := o.Prefetch(context.Background(), coals, 2); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		v := NewRunView(o)
		for _, s := range coals {
			v.U(s)
		}
		if v.Evals() != len(coals) {
			t.Fatalf("Evals = %d, want %d", v.Evals(), len(coals))
		}
	})
	if avg > 2 {
		t.Errorf("a view serving %d warm hits made %v allocations, want at most 2", len(coals), avg)
	}
}

// TestPlanClaimsAllocatesPerList: planning claims over uncached
// coalitions with 10 % duplicates makes the same number of allocations
// whatever the list's length — nothing per entry, per duplicate or per
// shard bucket.
func TestPlanClaimsAllocatesPerList(t *testing.T) {
	allocs := func(count int) float64 {
		coals := meterUniverse(count, 4)
		list := slices.Concat(coals, coals[:count/10])
		rand.New(rand.NewSource(5)).Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
		o := NewOracle(24, meterValue)
		return testing.AllocsPerRun(10, func() {
			if p := o.planClaims(list, 2); p == nil || len(p.list) != count {
				t.Fatalf("planned %v, want %d distinct entries", p, count)
			}
		})
	}
	if small, large := allocs(600), allocs(6000); small != large || large > 5 {
		t.Errorf("planClaims made %v allocations for 660 coalitions and %v for 6,600; want the same, at most 5", small, large)
	}
}

// FuzzRunViewMeter decodes a request stream with interleaved Warm calls,
// oracle-level evaluations and Cached probes from the fuzz bytes, three
// bytes an operation, and checks the view and the oracle against map
// meters after each.
func FuzzRunViewMeter(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 1, 0, 3, 1, 0, 2, 1, 0})
	f.Add([]byte{254, 0, 0, 0, 5, 0, 0, 63, 0, 7, 5, 0, 250, 40, 0})
	f.Add([]byte{1, 9, 7, 2, 9, 7, 0, 9, 7, 3, 8, 7, 255, 200, 3, 5, 10, 7})
	universe := meterUniverse(2048, 6)
	f.Fuzz(func(t *testing.T, data []byte) {
		o := NewOracle(24, meterValue)
		v := NewRunView(o)
		requested := make(map[combin.Coalition]bool) // the view's meter
		evaluated := make(map[combin.Coalition]bool) // the oracle's
		cached := make(map[combin.Coalition]bool)
		for ; len(data) >= 3; data = data[3:] {
			op, at := data[0], int(binary.LittleEndian.Uint16(data[1:3]))%len(universe)
			s := universe[at]
			evaluates := false // whether s is evaluated unless cached
			switch op % 4 {
			case 0, 1: // the run requests s
				if u := v.U(s); u != meterValue(s) {
					t.Fatalf("U(%v) = %v, want %v", s, u, meterValue(s))
				}
				requested[s], evaluates = true, true
			case 2: // warm a run of up to 64 entries from s on
				batch := utilityMap(universe[at:min(at+int(op>>2)+1, len(universe))])
				added := 0
				for c := range batch {
					if !cached[c] {
						cached[c] = true
						added++
					}
				}
				if got := o.Warm(batch); got != added {
					t.Fatalf("Warm added %d, want %d", got, added)
				}
			case 3:
				if op&4 != 0 {
					o.U(s) // evaluated outside the run: not charged to it
					evaluates = true
				}
				if v.Cached(s) != requested[s] {
					t.Fatalf("Cached(%v) = %v, want %v", s, !requested[s], requested[s])
				}
			}
			if evaluates && !cached[s] {
				cached[s], evaluated[s] = true, true
			}
			if v.Evals() != len(requested) || o.Evals() != len(evaluated) || o.Size() != len(cached) {
				t.Fatalf("view Evals %d, oracle Evals %d, Size %d; want %d, %d, %d",
					v.Evals(), o.Evals(), o.Size(), len(requested), len(evaluated), len(cached))
			}
		}
		for s := range requested {
			if !v.Cached(s) {
				t.Fatalf("requested %v not Cached", s)
			}
		}
	})
}
