package dataset

import (
	"fmt"
	"math/rand"
)

// The five federated partitioning setups of the paper's Fig. 6. Each takes a
// pooled training dataset and produces one dataset per FL client.

// PartitionEqualIID implements setup (a) same-size-same-distribution: the
// pool is shuffled and split into n equal partitions, so every client's data
// is an IID sample of the pool.
func PartitionEqualIID(d *Dataset, n int, rng *rand.Rand) []*Dataset {
	if n <= 0 {
		panic("dataset: PartitionEqualIID requires n > 0")
	}
	perm := rng.Perm(d.Len())
	out := make([]*Dataset, n)
	per := d.Len() / n
	for c := 0; c < n; c++ {
		lo, hi := c*per, (c+1)*per
		if c == n-1 {
			hi = d.Len()
		}
		out[c] = d.Subset(fmt.Sprintf("%s/iid-%d", d.Name, c), perm[lo:hi])
	}
	return out
}

// PartitionLabelSkew implements setup (b) same-size-different-distribution:
// each client receives an equal share of samples, but a fraction majorFrac
// of each client's samples come from "its own" label group (labels are
// assigned round-robin to clients), and the remainder is drawn IID. This is
// the standard label-skew construction for non-IID FL benchmarks.
func PartitionLabelSkew(d *Dataset, n int, majorFrac float64, rng *rand.Rand) []*Dataset {
	if majorFrac < 0 || majorFrac > 1 {
		panic("dataset: majorFrac must lie in [0,1]")
	}
	byLabel := make([][]int, d.NumClasses)
	for i, y := range d.Y {
		byLabel[y] = append(byLabel[y], i)
	}
	for _, idx := range byLabel {
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
	}
	per := d.Len() / n
	major := int(float64(per) * majorFrac)

	taken := make([]int, d.NumClasses) // consumption cursor per label
	clientIdx := make([][]int, n)

	// Major portion: client c preferentially draws labels ≡ c (mod n).
	for c := 0; c < n; c++ {
		need := major
		for l := c % d.NumClasses; need > 0; l = (l + n) % d.NumClasses {
			avail := len(byLabel[l]) - taken[l]
			take := min(need, avail)
			clientIdx[c] = append(clientIdx[c], byLabel[l][taken[l]:taken[l]+take]...)
			taken[l] += take
			need -= take
			if take == 0 {
				break // this label group exhausted; fall through to IID fill
			}
		}
	}
	// Remainder: round-robin over whatever is left, IID.
	var rest []int
	for l, idx := range byLabel {
		rest = append(rest, idx[taken[l]:]...)
	}
	rng.Shuffle(len(rest), func(a, b int) { rest[a], rest[b] = rest[b], rest[a] })
	r := 0
	for c := 0; c < n; c++ {
		for len(clientIdx[c]) < per && r < len(rest) {
			clientIdx[c] = append(clientIdx[c], rest[r])
			r++
		}
	}
	out := make([]*Dataset, n)
	for c := range out {
		out[c] = d.Subset(fmt.Sprintf("%s/skew-%d", d.Name, c), clientIdx[c])
	}
	return out
}

// PartitionBySizeRatio implements setup (c) different-size-same-distribution:
// the shuffled pool is split with size ratios 1 : 2 : ... : n.
func PartitionBySizeRatio(d *Dataset, n int, rng *rand.Rand) []*Dataset {
	perm := rng.Perm(d.Len())
	total := n * (n + 1) / 2
	out := make([]*Dataset, n)
	pos := 0
	for c := 0; c < n; c++ {
		share := d.Len() * (c + 1) / total
		if c == n-1 {
			share = d.Len() - pos
		}
		out[c] = d.Subset(fmt.Sprintf("%s/ratio-%d", d.Name, c), perm[pos:pos+share])
		pos += share
	}
	return out
}

// AddLabelNoise implements setup (d) same-size-noisy-label: it flips a
// fraction frac of labels to one of the other labels with equal probability,
// in place, and returns the number of flipped samples.
func AddLabelNoise(d *Dataset, frac float64, rng *rand.Rand) int {
	if frac < 0 || frac > 1 {
		panic("dataset: label-noise fraction must lie in [0,1]")
	}
	if d.NumClasses < 2 {
		return 0
	}
	flipped := 0
	for i := range d.Y {
		if rng.Float64() >= frac {
			continue
		}
		old := d.Y[i]
		ny := rng.Intn(d.NumClasses - 1)
		if ny >= old {
			ny++
		}
		d.Y[i] = ny
		flipped++
	}
	return flipped
}

// AddFeatureNoise implements setup (e) same-size-noisy-feature: it adds
// scale · N(0,1) noise to every feature of every sample, in place.
func AddFeatureNoise(d *Dataset, scale float64, rng *rand.Rand) {
	if scale == 0 {
		return
	}
	for i := range d.X.Data {
		d.X.Data[i] += scale * rng.NormFloat64()
	}
}
