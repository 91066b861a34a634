package fl

// seqSource is math/rand's rngSource ($GOROOT/src/math/rand/rng.go) with a
// seed that costs nothing: it yields, seed for seed and draw for draw, the
// stream rand.NewSource gives, but computes a register word only when the
// stream first reads it.
//
// rngSource.Seed steps the Park–Miller generator x ↦ 48271·x mod (2³¹−1)
// 1,841 times from the reduced seed x₀ and fills all 607 words of its
// lagged-Fibonacci register, word i from steps 21+3i, 22+3i and 23+3i.
// The j-th step is x₀·48271ʲ mod (2³¹−1), so word i can be computed on its
// own from x₀ and the powers in seedPow. A training client's permutation
// reads as many draws as it has samples, often a few dozen, so most of the
// register a full Seed builds is never read before the next Seed.
//
// Which words the stream has read is a function of the draw count alone:
// draw n (from 0) reads the feed word 333−n and the tap word 606−n (mod
// 607), and they were read before only once n ≥ 334 and n ≥ 273
// respectively. So the first 334 draws after a Seed compute their fresh
// words, and every later draw is rngSource's add and store.
//
// The zero value is seeded with 0, as rand.NewSource(0) is.
type seqSource struct {
	vec [rngLen]int64
	// tap is rngSource's tap; its feed index is always tap−rngTap mod
	// rngLen.
	tap int
	// drawn counts the draws since Seed until every word is computed.
	drawn int
	// x0 is the reduced seed, in [1, 2³¹−1); 0 before the first Seed.
	x0 uint64
}

const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
	// seedSkip is how many generator steps rngSource.Seed discards before
	// the first register word.
	seedSkip = 20
	// seedZero is the reduced seed math/rand uses for a seed of 0 mod
	// 2³¹−1.
	seedZero = 89482311
)

// seedPow[j] is 48271ʲ mod (2³¹−1).
var seedPow = func() (p [seedSkip + 1 + 3*rngLen]uint32) {
	x := uint64(1)
	for j := range p {
		p[j] = uint32(x)
		x = x * 48271 % int32max
	}
	return p
}()

// Seed reduces seed as rngSource.Seed does and forgets the register.
func (s *seqSource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = seedZero
	}
	s.x0, s.tap, s.drawn = uint64(seed), 0, 0
}

// Int63 returns a non-negative pseudo-random 63-bit integer, as
// rngSource.Int63 does.
func (s *seqSource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// Uint64 returns rngSource.Uint64's next value.
func (s *seqSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	feed := s.tap - rngTap
	if feed < 0 {
		feed += rngLen
	}
	if s.drawn < rngLen-rngTap {
		s.warm(feed)
	}
	x := s.vec[feed] + s.vec[s.tap]
	s.vec[feed] = x
	return uint64(x)
}

// warm computes the words the current draw reads for the first time: the
// feed word on each of the first rngLen−rngTap draws after a Seed, and the
// tap word on each of the first rngTap.
func (s *seqSource) warm(feed int) {
	if s.x0 == 0 {
		s.x0 = seedZero
	}
	s.vec[feed] = s.word(feed)
	if s.drawn < rngTap {
		s.vec[s.tap] = s.word(s.tap)
	}
	s.drawn++
}

// word is register word i as rngSource.Seed(x0) leaves it.
func (s *seqSource) word(i int) int64 {
	p := seedPow[seedSkip+1+3*i:][:3]
	u := int64(s.x0*uint64(p[0])%int32max) << 40
	u ^= int64(s.x0*uint64(p[1])%int32max) << 20
	u ^= int64(s.x0 * uint64(p[2]) % int32max)
	return u ^ rngCooked[i]
}
