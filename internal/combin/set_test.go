package combin

import (
	"math/rand"
	"sort"
	"testing"
)

// randomCoalition draws a coalition over n players, each joining with
// probability ½; for n > 64 both words are populated.
func randomCoalition(n int, rng *rand.Rand) Coalition {
	var c Coalition
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 1 {
			c = c.With(i)
		}
	}
	return c
}

// TestSetMatchesMap drives a Set and a map[Coalition]int through the same
// seeded add/find sequence. Small key spaces force duplicates and long probe
// runs; wide ones use both words of the coalition; presized sets must agree
// with sets that grew from nothing.
func TestSetMatchesMap(t *testing.T) {
	cases := []struct {
		name            string
		n, ops, presize int
		seed            int64
	}{
		{"tiny key space, all duplicates", 3, 500, 0, 123},
		{"n=10 grows from zero", 10, 4000, 0, 124},
		{"n=24 presized exactly", 24, 6000, 6000, 125},
		{"n=24 presized too small", 24, 6000, 100, 126},
		{"wide n=100", 100, 5000, 0, 127},
		{"wide n=127 high word only differs", 127, 3000, 16, 128},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			set := NewSet(tc.presize)
			ref := map[Coalition]int{}
			var order []Coalition
			draw := func() Coalition {
				c := randomCoalition(tc.n, rng)
				if tc.n == 127 {
					// Same low word throughout: only the high word tells
					// members apart.
					lo, _ := FullCoalition(64).Words()
					_, hi := c.Words()
					c = FromWords(lo, hi)
				}
				return c
			}
			for op := 0; op < tc.ops; op++ {
				c := draw()
				wantIdx, present := ref[c]
				if rng.Intn(3) == 0 { // find
					got := set.Find(c)
					if present && got != wantIdx || !present && got != -1 {
						t.Fatalf("op %d: Find(%v) = %d, map says (%d, %v)", op, c, got, wantIdx, present)
					}
					if set.Has(c) != present {
						t.Fatalf("op %d: Has(%v) = %v, want %v", op, c, !present, present)
					}
					continue
				}
				idx, added := set.Add(c)
				if added == present {
					t.Fatalf("op %d: Add(%v) added=%v, map has it: %v", op, c, added, present)
				}
				if !present {
					wantIdx = len(ref)
					ref[c] = wantIdx
					order = append(order, c)
				}
				if idx != wantIdx {
					t.Fatalf("op %d: Add(%v) index %d, want %d", op, c, idx, wantIdx)
				}
				if set.Len() != len(ref) {
					t.Fatalf("op %d: Len = %d, want %d", op, set.Len(), len(ref))
				}
			}
			keys := set.Keys()
			if len(keys) != len(order) {
				t.Fatalf("Keys has %d entries, want %d", len(keys), len(order))
			}
			for i, c := range order {
				if keys[i] != c {
					t.Fatalf("Keys[%d] = %v, want %v (insertion order)", i, keys[i], c)
				}
				if got := set.Find(c); got != i {
					t.Fatalf("Find(%v) = %d after growth, want %d", c, got, i)
				}
			}
		})
	}
}

func TestSetZeroValue(t *testing.T) {
	var s Set
	if s.Has(Empty) || s.Find(Empty) != -1 || s.Len() != 0 {
		t.Fatal("zero Set is not empty")
	}
	// The empty coalition is a legitimate member, not a sentinel.
	if idx, added := s.Add(Empty); idx != 0 || !added {
		t.Fatalf("Add(Empty) = (%d, %v), want (0, true)", idx, added)
	}
	if !s.Has(Empty) {
		t.Fatal("Empty not found after Add")
	}
}

// leastCoveredReference is leastCoveredSubset as it was written before the
// stack-buffer insertion sort: the same shuffle, then sort.SliceStable.
func leastCoveredReference(coverage []int, k int, rng *rand.Rand) Coalition {
	n := len(coverage)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	sort.SliceStable(order, func(a, b int) bool {
		return coverage[order[a]] < coverage[order[b]]
	})
	var c Coalition
	for _, i := range order[:k] {
		c = c.With(i)
	}
	return c
}

// TestLeastCoveredSubsetMatchesStableSort checks that the insertion sort
// picks the coalition sort.SliceStable picked and leaves the RNG in the same
// state, over coverage vectors with few distinct values (many ties, where
// stability decides) and many.
func TestLeastCoveredSubsetMatchesStableSort(t *testing.T) {
	cases := []struct {
		n, spread int
		seed      int64
	}{
		{1, 1, 123}, {2, 1, 124}, {5, 2, 125}, {10, 3, 126},
		{24, 1, 127}, {24, 2, 128}, {24, 50, 129}, {64, 4, 130},
		{100, 3, 131}, {127, 2, 132}, {127, 1000, 133},
	}
	for _, tc := range cases {
		gen := rand.New(rand.NewSource(tc.seed))
		got, want := rand.New(rand.NewSource(tc.seed+1000)), rand.New(rand.NewSource(tc.seed+1000))
		coverage := make([]int, tc.n)
		for rep := 0; rep < 200; rep++ {
			for i := range coverage {
				coverage[i] = gen.Intn(tc.spread)
			}
			k := 1 + gen.Intn(tc.n)
			g, w := leastCoveredSubset(coverage, k, got), leastCoveredReference(coverage, k, want)
			if g != w {
				t.Fatalf("n=%d spread=%d rep=%d k=%d: picked %v, stable sort picks %v (coverage %v)",
					tc.n, tc.spread, rep, k, g, w, coverage)
			}
		}
		if got.Int63() != want.Int63() {
			t.Errorf("n=%d spread=%d: RNG streams diverged", tc.n, tc.spread)
		}
	}
}

// TestDrawsDoNotAllocate pins the allocation-free draw primitives: they sit
// inside every sampler's per-draw loop.
func TestDrawsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	coverage := make([]int, 24)
	for i := range coverage {
		coverage[i] = rng.Intn(4)
	}
	var sink Coalition
	var members [MaxPlayers]int
	for name, fn := range map[string]func(){
		"RandomSubsetOfSize":      func() { sink = RandomSubsetOfSize(24, 7, rng) },
		"RandomSubsetOfSize wide": func() { sink = RandomSubsetOfSize(MaxPlayers, 90, rng) },
		"leastCoveredSubset":      func() { sink = leastCoveredSubset(coverage, 5, rng) },
		"AppendMembers":           func() { _ = sink.AppendMembers(members[:0]) },
	} {
		if avg := testing.AllocsPerRun(200, fn); avg != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, avg)
		}
	}
}

func TestAppendMembersMatchesMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	buf := make([]int, 0, MaxPlayers)
	for _, n := range []int{0, 1, 24, 64, 65, MaxPlayers} {
		for rep := 0; rep < 50; rep++ {
			c := randomCoalition(n, rng)
			want := c.Members()
			got := c.AppendMembers(buf[:0])
			if len(got) != len(want) {
				t.Fatalf("%v: AppendMembers has %d members, Members %d", c, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v: AppendMembers[%d] = %d, want %d", c, i, got[i], want[i])
				}
			}
		}
	}
	// It appends: what is already in the buffer stays.
	if got := NewCoalition(3, 70).AppendMembers([]int{-1}); len(got) != 3 || got[0] != -1 || got[1] != 3 || got[2] != 70 {
		t.Errorf("AppendMembers onto [-1] = %v, want [-1 3 70]", got)
	}
}

// TestAppendSubsetsUpTo checks the strata enumerator against SubsetsOfSize
// stratum by stratum: same members, same order.
func TestAppendSubsetsUpTo(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{0, 0}, {1, 0}, {1, 1}, {5, 2}, {10, 1}, {24, 3}, {6, 6}, {6, 9}, {100, 2}} {
		var want []Coalition
		for size := 0; size <= tc.k && size <= tc.n; size++ {
			SubsetsOfSize(tc.n, size, func(s Coalition) { want = append(want, s) })
		}
		got := AppendSubsetsUpTo(nil, tc.n, tc.k)
		if len(got) != len(want) {
			t.Fatalf("n=%d k=%d: %d subsets, want %d", tc.n, tc.k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d k=%d: subset %d is %v, want %v", tc.n, tc.k, i, got[i], want[i])
			}
		}
		if uint64(len(got)) != CumulativeBinomial(tc.n, tc.k) {
			t.Errorf("n=%d k=%d: %d subsets, CumulativeBinomial says %d", tc.n, tc.k, len(got), CumulativeBinomial(tc.n, tc.k))
		}
	}
	prefix := []Coalition{NewCoalition(9)}
	if got := AppendSubsetsUpTo(prefix, 3, 1); len(got) != 5 || got[0] != prefix[0] || got[1] != Empty {
		t.Errorf("AppendSubsetsUpTo onto a prefix = %v", got)
	}
}
