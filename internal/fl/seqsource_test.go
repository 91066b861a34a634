package fl

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// edgeSeeds are the seeds where Seed's reduction branches: 0 and the
// multiples of 2³¹−1 (which math/rand maps to 89482311), the sign, the
// int64 extremes and 89482311 itself.
var edgeSeeds = []int64{
	0, 1, -1, int32max, -int32max, 2 * int32max, int32max - 1, int32max + 1,
	seedZero, -seedZero, math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
}

// seqStreamDraws reads past both wraps of the register: every word is
// first computed in the first rngLen draws and then re-read twice more.
const seqStreamDraws = 2500

// TestSeqSourceMatchesMathRand: seed for seed and draw for draw, the
// source yields rand.NewSource's stream, and its zero value yields
// rand.NewSource(0)'s.
func TestSeqSourceMatchesMathRand(t *testing.T) {
	seeds := slices.Clone(edgeSeeds)
	gen := rand.New(rand.NewSource(44))
	for len(seeds) < 1010 {
		switch len(seeds) % 3 {
		case 0:
			seeds = append(seeds, int64(gen.Uint64()))
		case 1:
			seeds = append(seeds, gen.Int63n(1<<40)-1<<39)
		default:
			seeds = append(seeds, int64(len(seeds))*9176+1009)
		}
	}
	check := func(name string, got *seqSource, seed int64) {
		t.Helper()
		want := rand.NewSource(seed).(rand.Source64)
		for d := 0; d < seqStreamDraws; d++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("%s: draw %d of seed %d is %#x, math/rand gives %#x", name, d, seed, g, w)
			}
		}
	}
	check("zero value", new(seqSource), 0)
	var s seqSource
	for _, seed := range seeds {
		s.Seed(seed)
		check("reseeded source", &s, seed)
	}
}

// TestSeqSourceReseedMidStream is the arena's pattern: one rand.Rand over
// one source, reseeded before each client whatever the last one read,
// gives every client the permutation and draws a fresh
// rand.New(rand.NewSource(seed)) gives.
func TestSeqSourceReseedMidStream(t *testing.T) {
	r := rand.New(new(seqSource))
	// Draw counts straddle the points where the source stops computing
	// tap words (273) and feed words (334), and the register's length.
	for k, n := range []int{30, 1, 272, 273, 274, 0, 333, 334, 335, 606, 607, 608, 120, 1500, 2, 600} {
		seed := int64(k)*1009 - 7*int64(n)
		want := rand.New(rand.NewSource(seed))
		r.Seed(seed)
		if got, w := r.Perm(n), want.Perm(n); !slices.Equal(got, w) {
			t.Fatalf("Perm(%d) after Seed(%d) = %v, math/rand gives %v", n, seed, got, w)
		}
		for i := 1; i <= 40; i++ {
			if got, w := r.Intn(i*37), want.Intn(i*37); got != w {
				t.Fatalf("Intn(%d) after Perm(%d) of seed %d = %d, math/rand gives %d", i*37, n, seed, got, w)
			}
		}
		if got, w := r.Float64(), want.Float64(); got != w {
			t.Fatalf("Float64 of seed %d = %v, math/rand gives %v", seed, got, w)
		}
	}
}

// TestSeqSourceSeedDoesNotAllocate: a reseed and the draws of a client's
// permutation allocate nothing.
func TestSeqSourceSeedDoesNotAllocate(t *testing.T) {
	r := rand.New(new(seqSource))
	seed := int64(0)
	if avg := testing.AllocsPerRun(100, func() {
		seed++
		r.Seed(seed)
		for i := 1; i <= 120; i++ {
			r.Intn(i)
		}
	}); avg != 0 {
		t.Errorf("Seed and 120 draws made %v allocations, want 0", avg)
	}
}

// FuzzSeqSource compares the source with math/rand for draws draws from
// seed, with a reseed to seed+reseedAt after reseedAt of them.
func FuzzSeqSource(f *testing.F) {
	f.Add(int64(0), uint16(2500), uint16(0))
	f.Add(int64(math.MinInt64), uint16(700), uint16(30))
	f.Add(int64(int32max), uint16(1300), uint16(334))
	f.Add(int64(-1), uint16(900), uint16(273))
	f.Fuzz(func(t *testing.T, seed int64, draws, reseedAt uint16) {
		var s seqSource
		s.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for d := 0; d < int(draws%4096); d++ {
			if d == int(reseedAt) {
				s.Seed(seed + int64(reseedAt))
				want.Seed(seed + int64(reseedAt))
			}
			if g, w := s.Uint64(), want.Uint64(); g != w {
				t.Fatalf("draw %d of seed %d (reseeded at %d) is %#x, math/rand gives %#x", d, seed, reseedAt, g, w)
			}
		}
	})
}
