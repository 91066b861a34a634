// Package combin provides coalition (subset) representations and the
// combinatorial primitives used throughout Shapley-value computation:
// bitmask coalitions, binomial coefficients, stratum enumeration, and
// reproducible sampling of subsets and permutations.
//
// A coalition over n players (n <= 127) is a 128-bit bitmask (two uint64
// words) where bit i set means player i is a member — wide enough for the
// paper's 100-client scalability experiments. Bitmasks keep the exponential
// bookkeeping of Shapley computation cheap: union, membership, complement
// and popcount are a handful of instructions, and a coalition is directly
// usable as a cache key (the struct is comparable).
//
// Exhaustive power-set enumeration (AllSubsets) is limited to small n;
// per-stratum enumeration (SubsetsOfSize) works at any width but is guarded
// by a C(n,k) ceiling — beyond it, enumeration is astronomically infeasible
// regardless of representation, and the sampling-based algorithms never ask
// for it.
package combin

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"
)

// MaxPlayers is the largest federation size representable by a Coalition.
const MaxPlayers = 127

// maxEnumerate is the largest federation size for which exhaustive stratum
// enumeration is supported.
const maxEnumerate = 63

// Coalition is a subset of players encoded as a 128-bit bitmask.
type Coalition struct {
	lo, hi uint64
}

// Empty is the coalition with no members.
var Empty = Coalition{}

// FullCoalition returns the coalition containing all n players.
func FullCoalition(n int) Coalition {
	if n < 0 || n > MaxPlayers {
		panic(fmt.Sprintf("combin: player count %d out of range [0,%d]", n, MaxPlayers))
	}
	switch {
	case n == 0:
		return Coalition{}
	case n <= 64:
		if n == 64 {
			return Coalition{lo: ^uint64(0)}
		}
		return Coalition{lo: (uint64(1) << uint(n)) - 1}
	default:
		return Coalition{lo: ^uint64(0), hi: (uint64(1) << uint(n-64)) - 1}
	}
}

// NewCoalition builds a coalition from an explicit member list.
func NewCoalition(members ...int) Coalition {
	var c Coalition
	for _, m := range members {
		c = c.With(m)
	}
	return c
}

// fromLo lifts a low-word bitmask into a Coalition (enumeration fast path).
func fromLo(m uint64) Coalition { return Coalition{lo: m} }

// FromMask builds a coalition from a low-word bitmask over players 0..63
// (the inverse of Index for small federations).
func FromMask(m uint64) Coalition { return Coalition{lo: m} }

// With returns the coalition with player i added.
func (c Coalition) With(i int) Coalition {
	checkPlayer(i)
	if i < 64 {
		c.lo |= 1 << uint(i)
	} else {
		c.hi |= 1 << uint(i-64)
	}
	return c
}

// Without returns the coalition with player i removed.
func (c Coalition) Without(i int) Coalition {
	checkPlayer(i)
	if i < 64 {
		c.lo &^= 1 << uint(i)
	} else {
		c.hi &^= 1 << uint(i-64)
	}
	return c
}

// Has reports whether player i is a member.
func (c Coalition) Has(i int) bool {
	checkPlayer(i)
	if i < 64 {
		return c.lo&(1<<uint(i)) != 0
	}
	return c.hi&(1<<uint(i-64)) != 0
}

// Size returns the number of members |S|.
func (c Coalition) Size() int {
	return bits.OnesCount64(c.lo) + bits.OnesCount64(c.hi)
}

// IsEmpty reports whether the coalition has no members.
func (c Coalition) IsEmpty() bool { return c.lo == 0 && c.hi == 0 }

// Intersect returns S ∩ T.
func (c Coalition) Intersect(t Coalition) Coalition {
	return Coalition{lo: c.lo & t.lo, hi: c.hi & t.hi}
}

// Minus returns S \ T.
func (c Coalition) Minus(t Coalition) Coalition {
	return Coalition{lo: c.lo &^ t.lo, hi: c.hi &^ t.hi}
}

// Less orders coalitions by bitmask value (hi word first), giving a stable
// deterministic order for sorting sampled sets.
func (c Coalition) Less(t Coalition) bool {
	if c.hi != t.hi {
		return c.hi < t.hi
	}
	return c.lo < t.lo
}

// Index returns the coalition as a dense array index. It is only valid for
// federations of at most 63 players (the exhaustive-computation regime) and
// panics if the high word is occupied.
func (c Coalition) Index() uint64 {
	if c.hi != 0 {
		panic("combin: Index on coalition with players >= 64")
	}
	return c.lo
}

// Words returns the raw bitmask words (players 0-63 in lo, 64-126 in hi),
// for serialisation. FromWords is the inverse.
func (c Coalition) Words() (lo, hi uint64) { return c.lo, c.hi }

// FromWords rebuilds a coalition from its raw bitmask words.
func FromWords(lo, hi uint64) Coalition { return Coalition{lo: lo, hi: hi} }

// Hash returns a well-mixed 64-bit hash of the bitmask (splitmix64-style
// finaliser), suitable for sharded caches: coalitions that differ in a
// single low bit land in different shards.
func (c Coalition) Hash() uint64 {
	h := c.lo ^ bits.RotateLeft64(c.hi, 32) ^ 0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Members returns the sorted member indices.
func (c Coalition) Members() []int {
	return c.AppendMembers(make([]int, 0, c.Size()))
}

// AppendMembers appends the sorted member indices to buf and returns the
// extended slice — Members for hot loops that reuse one buffer (a
// [MaxPlayers]int on the stack never reallocates).
func (c Coalition) AppendMembers(buf []int) []int {
	for m := c.lo; m != 0; {
		buf = append(buf, bits.TrailingZeros64(m))
		m &= m - 1
	}
	for m := c.hi; m != 0; {
		buf = append(buf, 64+bits.TrailingZeros64(m))
		m &= m - 1
	}
	return buf
}

// String renders the coalition as "{0,2,5}".
func (c Coalition) String() string {
	if c.IsEmpty() {
		return "{}"
	}
	var b strings.Builder
	b.WriteByte('{')
	for idx, m := range c.Members() {
		if idx > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(m))
	}
	b.WriteByte('}')
	return b.String()
}

func checkPlayer(i int) {
	if i < 0 || i >= MaxPlayers {
		panic(fmt.Sprintf("combin: player index %d out of range [0,%d)", i, MaxPlayers))
	}
}

// AllSubsets calls fn for every subset of the full coalition over n players,
// including the empty set and the grand coalition, in ascending bitmask
// order. It panics if n exceeds 30 to guard against accidental 2^63 loops.
func AllSubsets(n int, fn func(Coalition)) {
	if n > 30 {
		panic("combin: AllSubsets over more than 30 players is infeasible")
	}
	full := FullCoalition(n).lo
	for m := uint64(0); ; m++ {
		fn(fromLo(m))
		if m == full {
			return
		}
	}
}

// maxStratumEnumeration bounds how many subsets one SubsetsOfSize call may
// yield, guarding against infeasible loops (e.g. C(100, 50)).
const maxStratumEnumeration = 1 << 24

// SubsetsOfSize calls fn for every subset of {0..n-1} with exactly k
// members, in a deterministic order. For n <= 63 it
// uses Gosper's hack on the low word; for wider federations (the Fig. 9
// regime, n up to 127) it enumerates recursively — only small strata are
// ever requested there, and the C(n,k) guard enforces that.
func SubsetsOfSize(n, k int, fn func(Coalition)) {
	if k < 0 || k > n {
		return
	}
	if c := BinomialInt(n, k); c > maxStratumEnumeration {
		panic(fmt.Sprintf("combin: SubsetsOfSize(%d,%d) would enumerate %d subsets (limit %d)",
			n, k, c, maxStratumEnumeration))
	}
	if k == 0 {
		fn(Empty)
		return
	}
	if n <= maxEnumerate {
		limit := uint64(1) << uint(n)
		v := (uint64(1) << uint(k)) - 1
		for v < limit {
			fn(fromLo(v))
			// Gosper's hack: next higher integer with same popcount.
			c := v & (^v + 1)
			r := v + c
			v = (((r ^ v) >> 2) / c) | r
			if c == 0 {
				break
			}
		}
		return
	}
	// Wide path: recursive k-combination enumeration in ascending order.
	var rec func(start int, cur Coalition, picked int)
	rec = func(start int, cur Coalition, picked int) {
		if picked == k {
			fn(cur)
			return
		}
		// Need (k - picked) more members from start..n-1.
		for i := start; i <= n-(k-picked); i++ {
			rec(i+1, cur.With(i), picked+1)
		}
	}
	rec(0, Empty, 0)
}

// AppendSubsetsUpTo appends every subset of {0..n-1} with at most k members
// to dst — the strata IPSS and K-Greedy evaluate exhaustively — by ascending
// size, each stratum in SubsetsOfSize order, growing dst once for all
// Σ_{j≤k} C(n,j) of them.
func AppendSubsetsUpTo(dst []Coalition, n, k int) []Coalition {
	if k > n {
		k = n
	}
	if total := CumulativeBinomial(n, k); total <= maxStratumEnumeration {
		dst = slices.Grow(dst, int(total))
	}
	for size := 0; size <= k; size++ {
		SubsetsOfSize(n, size, func(s Coalition) { dst = append(dst, s) })
	}
	return dst
}

// SubsetsOfSizeNotContaining enumerates the size-k subsets of {0..n-1}\{i}.
func SubsetsOfSizeNotContaining(n, k, i int, fn func(Coalition)) {
	SubsetsOfSize(n-1, k, func(s Coalition) {
		fn(insertGap(s, i))
	})
}

// insertGap remaps a coalition over n-1 players to one over n players where
// index i is skipped: players >= i shift up by one position. The common
// low-word case is a couple of shifts; wide coalitions (or a shift that
// would carry into the high word) rebuild member by member.
func insertGap(s Coalition, i int) Coalition {
	if s.hi == 0 && s.lo>>63 == 0 && i < 64 {
		mask := uint64(1)<<uint(i) - 1
		return fromLo(s.lo&mask | (s.lo&^mask)<<1)
	}
	var out Coalition
	for _, m := range s.Members() {
		if m >= i {
			out = out.With(m + 1)
		} else {
			out = out.With(m)
		}
	}
	return out
}
