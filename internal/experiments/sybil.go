package experiments

import (
	"fmt"
	"math/rand"

	"fedshap/internal/dataset"
	"fedshap/internal/shapley"
	"fedshap/internal/theory"
)

// SybilSplit is an extension robustness study: a strategic client splits
// its dataset across k sybil identities hoping to collect more total value
// — the classic attack on data-marketplace payouts. The report compares
// the attacker's value before the split with the *sum* of its sybils'
// values after, for a chosen valuation algorithm. A robust payout rule
// keeps the ratio ≈ 1.
func SybilSplit(p *Problem, attacker, k int, mkAlg func(gamma int) shapley.Valuer, seed int64) (*Report, error) {
	if attacker < 0 || attacker >= p.N {
		return nil, fmt.Errorf("experiments: attacker %d out of range", attacker)
	}
	if k < 2 {
		return nil, fmt.Errorf("experiments: split count %d must be >= 2", k)
	}

	// Baseline valuation.
	gammaBefore := theory.GammaForN(p.N)
	before := RunAlgorithm(p, mkAlg(gammaBefore), nil, seed)
	if before.RunErr != nil {
		return nil, before.RunErr
	}

	// Build the post-split federation: attacker's data divided into k
	// IID shares, each becoming its own client.
	rng := rand.New(rand.NewSource(seed + 1))
	shares := dataset.PartitionEqualIID(p.Spec.Clients[attacker], k, rng)
	clients := make([]*dataset.Dataset, 0, p.N-1+k)
	var sybilIdx []int
	for i, c := range p.Spec.Clients {
		if i == attacker {
			continue
		}
		clients = append(clients, c)
	}
	for _, s := range shares {
		sybilIdx = append(sybilIdx, len(clients))
		clients = append(clients, s)
	}
	spec := *p.Spec
	spec.Clients = clients
	split := &Problem{Name: p.Name + "/sybil", N: len(clients), Spec: &spec}

	gammaAfter := theory.GammaForN(split.N)
	after := RunAlgorithm(split, mkAlg(gammaAfter), nil, seed+2)
	if after.RunErr != nil {
		return nil, after.RunErr
	}

	var sybilTotal float64
	for _, i := range sybilIdx {
		sybilTotal += after.Values[i]
	}
	ratio := 0.0
	if before.Values[attacker] != 0 {
		ratio = sybilTotal / before.Values[attacker]
	}
	rep := &Report{
		Title:  fmt.Sprintf("Sybil-split robustness — %s, attacker %d split %d-way", p.Name, attacker, k),
		Header: []string{"quantity", "value"},
		Rows: [][]string{
			{"attacker value before split", fmt.Sprintf("%.4f", before.Values[attacker])},
			{"sum of sybil values after", fmt.Sprintf("%.4f", sybilTotal)},
			{"gain ratio (≈1 is robust)", fmt.Sprintf("%.3f", ratio)},
		},
	}
	return rep, nil
}
