package shapley

import (
	"fmt"
	"math"
	"math/rand"

	"fedshap/internal/combin"
)

// StratifiedNeyman extends the unified framework (Alg. 1) with two-phase
// variance-aware budget allocation, an extension the paper leaves open (it
// "operates without imposing specific assumptions on the number of sampling
// rounds m_k"). Phase one spends a pilot fraction of the budget uniformly
// across strata to estimate each stratum's marginal-contribution variance;
// phase two allocates the remainder proportionally to the estimated
// standard deviations (Neyman allocation), so noisy strata get more
// samples. Pairs are force-evaluated so every sample yields a live
// marginal.
type StratifiedNeyman struct {
	// Gamma is the total evaluation budget.
	Gamma int
}

// pilotFraction is the share of the budget phase one spends uniformly.
const pilotFraction = 0.3

// NewStratifiedNeyman returns the two-phase allocator with budget γ.
func NewStratifiedNeyman(gamma int) *StratifiedNeyman {
	return &StratifiedNeyman{Gamma: gamma}
}

// Name implements Valuer.
func (a *StratifiedNeyman) Name() string {
	return fmt.Sprintf("Stratified-Neyman(γ=%d)", a.Gamma)
}

// sampleCounts resolves the effective budget and the per-phase sample
// counts: each "sample" costs ~2 evaluations (S and its pair S\{i}).
// Shared by Values and SamplePlan so the two cannot disagree on either
// clamp.
func (a *StratifiedNeyman) sampleCounts(n int) (gamma, totalSamples, pilot int) {
	gamma = a.Gamma
	if gamma < 2 {
		gamma = 2
	}
	totalSamples = gamma / 2
	pilot = int(float64(totalSamples) * pilotFraction)
	if pilot < n {
		pilot = min(totalSamples, n) // at least one pilot sample per stratum
	}
	return gamma, totalSamples, pilot
}

// neymanDraw makes one stratum-k draw: a random coalition and a random
// member whose marginal it will probe. Shared by Values and SamplePlan so
// the replayed plan consumes rng identically.
func neymanDraw(n, k int, rng *rand.Rand) (combin.Coalition, int) {
	s := combin.RandomSubsetOfSize(n, k, rng)
	var buf [combin.MaxPlayers]int
	members := s.AppendMembers(buf[:0])
	return s, members[rng.Intn(len(members))]
}

// Values implements Valuer.
func (a *StratifiedNeyman) Values(ctx *Context) (Values, error) {
	o := ctx.Oracle
	n := o.N()
	gamma, totalSamples, pilot := a.sampleCounts(n)

	// Per-(client, stratum) marginal contributions, plus their squares for
	// the variance estimate (indexed by acc.cell).
	acc := newStrataAcc(n)
	sumSq := make([]float64, len(acc.sums))
	// draw samples one marginal at a time: pick stratum k, sample S of
	// size k, pick i ∈ S, evaluate U(S) − U(S\{i}).
	drawInto := func(k int) {
		s, i := neymanDraw(n, k, ctx.RNG)
		d := o.U(s) - o.U(s.Without(i))
		acc.add(i, k, d)
		sumSq[acc.cell(i, k)] += d * d
	}

	// Phase one: uniform pilot.
	for t := 0; t < pilot; t++ {
		k := 1 + t%n
		drawInto(k)
	}

	// Estimate per-stratum std dev (pooled across clients).
	stds := make([]float64, n+1)
	var stdSum float64
	for k := 1; k <= n; k++ {
		sum, cnt := acc.pooled(k)
		var sq float64
		for i := 0; i < n; i++ {
			sq += sumSq[acc.cell(i, k)]
		}
		if cnt > 1 {
			mean := sum / float64(cnt)
			stds[k] = math.Sqrt(max(sq/float64(cnt)-mean*mean, 0))
		}
		// Floor so no stratum starves entirely.
		stds[k] = max(stds[k], 1e-6)
		stdSum += stds[k]
	}

	// Phase two: Neyman allocation of the remaining samples.
	remaining := totalSamples - pilot
	for k := 1; k <= n && remaining > 0; k++ {
		share := int(math.Round(float64(remaining) * stds[k] / stdSum))
		for t := 0; t < share && o.Evals() < gamma; t++ {
			drawInto(k)
		}
	}

	// Estimate: φ̂ᵢ = (1/n) Σ_k mean marginal of stratum k for client i.
	// A (client, stratum) cell with no samples falls back to the stratum's
	// pooled mean across clients — shrinkage that keeps the efficiency
	// mass instead of silently zeroing the cell (which would bias every
	// under-sampled client downward).
	pooled := make([]float64, n+1)
	for k := 1; k <= n; k++ {
		if sum, cnt := acc.pooled(k); cnt > 0 {
			pooled[k] = sum / float64(cnt)
		}
	}
	return acc.values(pooled), nil
}
