package combin

import (
	"math/rand"
	"sort"
)

// RandomSubsetOfSize draws one uniform-random subset of {0..n-1} with
// exactly k members using a partial Fisher-Yates shuffle.
func RandomSubsetOfSize(n, k int, rng *rand.Rand) Coalition {
	if k < 0 || k > n {
		panic("combin: RandomSubsetOfSize size out of range")
	}
	var buf [MaxPlayers]uint8 // player indices fit a byte; stays on the stack
	idx := buf[:n]
	for i := range idx {
		idx[i] = uint8(i)
	}
	var c Coalition
	for j := 0; j < k; j++ {
		p := j + rng.Intn(n-j)
		idx[j], idx[p] = idx[p], idx[j]
		c = c.With(int(idx[j]))
	}
	return c
}

// SampleStratumWithoutReplacement draws up to m distinct subsets of size k
// from {0..n-1}. When m >= C(n,k) it returns the whole stratum. For small
// strata it enumerates and shuffles; for large strata it rejection-samples,
// which is efficient because m << C(n,k) in that regime.
func SampleStratumWithoutReplacement(n, k, m int, rng *rand.Rand) []Coalition {
	if m <= 0 {
		return nil
	}
	total := BinomialInt(n, k)
	if uint64(m) >= total {
		out := make([]Coalition, 0, total)
		SubsetsOfSize(n, k, func(s Coalition) { out = append(out, s) })
		return out
	}
	// Enumerate-and-shuffle when the stratum is small enough to hold.
	const enumerateLimit = 1 << 16
	if total <= enumerateLimit {
		all := make([]Coalition, 0, total)
		SubsetsOfSize(n, k, func(s Coalition) { all = append(all, s) })
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		return all[:m]
	}
	drawn := NewSet(m)
	for drawn.Len() < m {
		drawn.Add(RandomSubsetOfSize(n, k, rng))
	}
	out := drawn.Keys() // the set is dropped here, so sorting its storage is safe
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// BalancedStratumSample draws up to m distinct subsets of size k from
// {0..n-1} such that every player appears in (as close as possible) the same
// number of sampled subsets — constraint (3) of Alg. 3 (C_i = C_j for all
// i, j). It builds subsets greedily from the least-covered players, breaking
// ties randomly, and retries on duplicates.
//
// Exact equality of coverage requires m*k ≡ 0 (mod n); otherwise coverage
// counts differ by at most one, which is the best achievable.
func BalancedStratumSample(n, k, m int, rng *rand.Rand) []Coalition {
	if m <= 0 || k <= 0 || k > n {
		return nil
	}
	total := BinomialInt(n, k)
	if uint64(m) >= total {
		out := make([]Coalition, 0, total)
		SubsetsOfSize(n, k, func(s Coalition) { out = append(out, s) })
		return out
	}
	coverage := make([]int, n)
	drawn := NewSet(m) // its insertion order is the sample
	var members [MaxPlayers]int
	attempts := 0
	maxAttempts := 64 * m
	for drawn.Len() < m && attempts < maxAttempts {
		attempts++
		s := leastCoveredSubset(coverage, k, rng)
		if _, fresh := drawn.Add(s); !fresh {
			// Re-draw with extra randomness: perturb by random subset.
			s = RandomSubsetOfSize(len(coverage), k, rng)
			if _, fresh = drawn.Add(s); !fresh {
				continue
			}
		}
		for _, i := range s.AppendMembers(members[:0]) {
			coverage[i]++
		}
	}
	// Fallback: top up with rejection sampling if the greedy loop stalled.
	for drawn.Len() < m {
		drawn.Add(RandomSubsetOfSize(n, k, rng))
	}
	return drawn.Keys()
}

// leastCoveredSubset picks k players preferring those with the lowest
// coverage count, breaking ties uniformly at random: a shuffle, then a
// stable sort by coverage. The sort is an insertion sort on a stack buffer —
// a stable sort's output is unique, so it is the order sort.SliceStable
// gives, without the reflect swapper or the slice.
func leastCoveredSubset(coverage []int, k int, rng *rand.Rand) Coalition {
	n := len(coverage)
	var buf [MaxPlayers]uint8
	order := buf[:n]
	for i := range order {
		order[i] = uint8(i)
	}
	rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	for a := 1; a < n; a++ {
		p := order[a]
		b := a
		for ; b > 0 && coverage[order[b-1]] > coverage[p]; b-- {
			order[b] = order[b-1]
		}
		order[b] = p
	}
	var c Coalition
	for _, i := range order[:k] {
		c = c.With(int(i))
	}
	return c
}

// PermInto is rand.Rand.Perm into a reusable buffer: a uniform-random
// permutation of 0..n-1 that consumes the RNG identically (same Intn
// sequence, hence the same permutation for the same seed), so a caller
// switching from Perm changes no draw after it — it only drops the
// per-permutation slice allocation. Kept in lockstep with math/rand's
// Perm, whose output sequence is frozen by the Go 1 compatibility promise;
// TestPermIntoMatchesRandPerm guards the lockstep.
func PermInto(rng *rand.Rand, n int, buf []int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	buf = buf[:n]
	// The i = 0 iteration is a useless self-swap, but math/rand keeps it
	// for Go 1 stream compatibility — it consumes one Intn — so it must
	// stay here too or every RNG draw after a shuffle would shift.
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		buf[i] = buf[j]
		buf[j] = i
	}
	return buf
}

// ForEachPermutation enumerates all n! permutations of 0..n-1 via Heap's
// algorithm, calling fn with each. fn must not retain the slice. Panics for
// n > 12 (479M permutations) to guard against infeasible loops.
func ForEachPermutation(n int, fn func([]int)) {
	if n > 12 {
		panic("combin: ForEachPermutation over more than 12 players is infeasible")
	}
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == 1 {
			fn(p)
			return
		}
		for i := 0; i < k; i++ {
			rec(k - 1)
			if k%2 == 0 {
				p[i], p[k-1] = p[k-1], p[i]
			} else {
				p[0], p[k-1] = p[k-1], p[0]
			}
		}
	}
	if n == 0 {
		fn(p)
		return
	}
	rec(n)
}
