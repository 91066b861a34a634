package shapley

import (
	"math"

	"fedshap/internal/combin"
)

// Anytime valuation: fold per-evaluation marginal contributions into running
// per-client estimates with always-valid confidence intervals, so a consumer
// can read off interim Shapley values (and stop early) while sampling is
// still in flight.
//
// The estimator mirrors the stratified structure every sampler here shares:
// a marginal contribution Δᵢ(S) = U(S∪{i}) − U(S) with |S| = k is one draw
// from stratum k of client i, and the Shapley value is the equally-weighted
// stratum-mean sum φᵢ = (1/n)·Σₖ E[Δᵢ(S) : |S| = k]. The tracker keeps
// Welford mean/variance per (client, stratum) cell and intervals per cell:
//
//   - a Serfling-style without-replacement Hoeffding bound, which carries a
//     (1 − (t−1)/M) finite-population factor and collapses to exactly zero
//     once all M planned pairs of the cell have been observed, and
//   - an empirical-Bernstein bound, which wins when the observed variance is
//     small long before the cell is exhausted.
//
// The per-cell failure probability is split anytime-uniformly over the
// observation count (δ_t = δ_cell/(t(t+1)), Σ_t δ_t = δ_cell), so the
// intervals are valid simultaneously at every checkpoint — the property the
// early-stop rule needs. Balanced stratum samples are not literal uniform
// without-replacement draws, so the Serfling factor is an approximation for
// sampled strata; the statistical suite in anytime_test.go measures the
// realised coverage and shows it stays at or above nominal.
//
// Estimand note: when a plan covers only part of a stratum family (IPSS
// truncation), unplanned cells are pinned to zero — the tracker estimates
// the same truncated quantity the algorithm itself reports, not the exact
// Shapley value.

// Tracker accumulates per-(client, stratum) marginal-contribution
// observations and serves interim estimates with simultaneous confidence
// intervals. It is not safe for concurrent use; callers serialise (the
// valserve driver feeds it from one goroutine).
type Tracker struct {
	n          int
	confidence float64
	lo, hi     float64 // marginal contribution bounds, default [-1, 1]

	// cells[i*n+k] is the stratum-k cell of client i (k = |S| ∈ [0, n-1]).
	cells []cell
}

type cell struct {
	planned int // pairs the plan can complete for this cell (M); 0 = pruned
	count   int
	mean    float64
	m2      float64
}

// NewTracker builds a tracker over the full stratum family: every cell's
// population is the whole stratum, M = C(n−1, k). Suitable when the sampler
// may touch any coalition (a valserve job whose algorithm has no complete
// plan).
func NewTracker(n int, confidence float64) *Tracker {
	t := &Tracker{n: n, confidence: confidence, lo: -1, hi: 1,
		cells: make([]cell, n*n)}
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			m := combin.BinomialInt(n-1, k)
			if m > math.MaxInt32 {
				m = math.MaxInt32
			}
			t.cells[i*n+k].planned = int(m)
		}
	}
	return t
}

// NewTrackerForPlan builds a tracker whose cell populations are the pairs
// actually completable within plan: cell (i, k) counts the coalitions S with
// |S| = k, i ∉ S where both S and S∪{i} appear in the plan. Cells with zero
// planned pairs are treated as deliberately pruned (IPSS truncation): they
// contribute zero to both the estimate and the interval, matching the
// truncated estimand the planned algorithm reports.
func NewTrackerForPlan(n int, confidence float64, plan []combin.Coalition) *Tracker {
	t := &Tracker{n: n, confidence: confidence, lo: -1, hi: 1,
		cells: make([]cell, n*n)}
	in := combin.NewSet(len(plan))
	for _, s := range plan {
		in.Add(s)
	}
	// Each distinct coalition once, in the plan's own order.
	for _, s := range in.Keys() {
		size := s.Size()
		for i := 0; i < n; i++ {
			if !s.Has(i) && in.Has(s.With(i)) {
				t.cells[i*n+size].planned++
			}
		}
	}
	return t
}

// N returns the number of clients.
func (t *Tracker) N() int { return t.n }

// Observe folds one marginal contribution Δᵢ(S) with |S| = stratum into
// client i's running statistics (Welford update).
func (t *Tracker) Observe(i, stratum int, delta float64) {
	if i < 0 || i >= t.n || stratum < 0 || stratum >= t.n {
		return
	}
	c := &t.cells[i*t.n+stratum]
	c.count++
	d := delta - c.mean
	c.mean += d / float64(c.count)
	c.m2 += d * (delta - c.mean)
}

// Observations returns the total marginal contributions folded for client i.
func (t *Tracker) Observations(i int) int {
	total := 0
	for k := 0; k < t.n; k++ {
		total += t.cells[i*t.n+k].count
	}
	return total
}

// Estimate returns the current per-client values: the equally-weighted sum
// of observed stratum means (unobserved and pruned cells contribute zero).
// On a fully enumerated plan this equals the exact MC-SV value; on IPSS it
// converges to the same truncated plug-in quantity the algorithm reports.
func (t *Tracker) Estimate() Values {
	v := make(Values, t.n)
	inv := 1 / float64(t.n)
	for i := 0; i < t.n; i++ {
		for k := 0; k < t.n; k++ {
			c := &t.cells[i*t.n+k]
			if c.count > 0 {
				v[i] += inv * c.mean
			}
		}
	}
	return v
}

// Interval returns client i's simultaneous confidence interval. Per-cell
// half-widths (min of the without-replacement Hoeffding and the empirical-
// Bernstein bound; exactly zero for exhausted cells; worst-case for planned
// but untouched cells) are summed across strata, scaled by 1/n.
func (t *Tracker) Interval(i int) (lo, hi float64) {
	center := 0.0
	hw := 0.0
	inv := 1 / float64(t.n)
	r := t.hi - t.lo
	worst := math.Max(math.Abs(t.lo), math.Abs(t.hi))
	// Union-bound the failure probability over every (client, stratum) cell
	// so all n client intervals hold simultaneously.
	deltaCell := (1 - t.confidence) / float64(t.n*t.n)
	for k := 0; k < t.n; k++ {
		c := &t.cells[i*t.n+k]
		if c.planned == 0 {
			continue // pruned stratum: pinned to zero by construction
		}
		if c.count == 0 {
			hw += inv * worst
			continue
		}
		center += inv * c.mean
		hw += inv * cellHalfWidth(c, deltaCell, r)
	}
	return center - hw, center + hw
}

// cellHalfWidth bounds |mean − truth| for one cell at anytime-corrected
// confidence: δ_t = δ_cell/(t(t+1)) keeps Σ_t δ_t = δ_cell, so the bound
// holds at every observation count simultaneously.
func cellHalfWidth(c *cell, deltaCell, r float64) float64 {
	tn := float64(c.count)
	if c.count >= c.planned {
		return 0 // population exhausted: the mean is the (truncated) truth
	}
	deltaT := deltaCell / (tn * (tn + 1))
	// Serfling without-replacement Hoeffding: the finite-population factor
	// (1 − (t−1)/M) drives the width to zero as the cell drains.
	fpc := 1 - (tn-1)/float64(c.planned)
	if fpc < 0 {
		fpc = 0
	}
	hoeff := r * math.Sqrt(fpc*math.Log(2/deltaT)/(2*tn))
	// Empirical Bernstein (Maurer–Pontil style): variance-adaptive, wins
	// when observed marginals are nearly constant.
	v := c.m2 / tn
	eb := math.Sqrt(2*v*math.Log(3/deltaT)/tn) + 3*r*math.Log(3/deltaT)/tn
	return math.Min(hoeff, eb)
}

// Resolved reports whether every pairwise client ranking is decided at the
// tracker's confidence: for each pair, either the intervals are disjoint or
// both are zero-width (fully resolved ties count as decided).
func (t *Tracker) Resolved() bool {
	lo := make([]float64, t.n)
	hi := make([]float64, t.n)
	for i := 0; i < t.n; i++ {
		lo[i], hi[i] = t.Interval(i)
	}
	for i := 0; i < t.n; i++ {
		for j := i + 1; j < t.n; j++ {
			disjoint := hi[i] < lo[j] || hi[j] < lo[i]
			exactTie := hi[i] == lo[i] && hi[j] == lo[j]
			if !disjoint && !exactTie {
				return false
			}
		}
	}
	return true
}

// AnytimeSnapshot is one interim view of a run: current estimates, their
// simultaneous confidence intervals, per-client observation counts, and
// progress through the plan.
type AnytimeSnapshot struct {
	Values       Values
	Lo, Hi       []float64
	Observations []int
	Seen         int // distinct coalitions folded so far
	Planned      int // distinct coalitions in the plan (0 when unplanned)
	Resolved     bool
}

// Replay turns a stream of (coalition, utility) evaluations — in any order —
// into tracker observations by pair completion: the moment both S and
// S∪{i} have been seen, Δᵢ(S) is folded. Duplicate coalitions are ignored,
// so feeding a plan's warm replay and live evaluations through the same
// Replay is safe.
type Replay struct {
	tracker *Tracker
	planned int
	seen    utilityTable
}

// NewReplay builds a replay feeding a plan-aware tracker (plan nil ⇒ the
// full stratum family, see NewTracker).
func NewReplay(n int, confidence float64, plan []combin.Coalition) *Replay {
	var tr *Tracker
	if plan == nil {
		tr = NewTracker(n, confidence)
	} else {
		tr = NewTrackerForPlan(n, confidence, plan)
	}
	return &Replay{tracker: tr, planned: len(plan), seen: newUtilityTable(len(plan))}
}

// Tracker exposes the underlying tracker (e.g. to tighten marginal bounds).
func (r *Replay) Tracker() *Tracker { return r.tracker }

// Add folds one evaluated coalition and reports whether it was new; a
// coalition already folded is ignored. Every marginal pair it completes is
// emitted in ascending client order, so the observation sequence is a pure
// function of the insertion order of distinct coalitions.
func (r *Replay) Add(s combin.Coalition, u float64) bool {
	if !r.seen.put(s, u) {
		return false
	}
	size := s.Size()
	for i := 0; i < r.tracker.n; i++ {
		if s.Has(i) {
			// s = S∪{i}: completing pair is S = s\{i}.
			if base, ok := r.seen.get(s.Without(i)); ok {
				r.tracker.Observe(i, size-1, u-base)
			}
		} else if sup, ok := r.seen.get(s.With(i)); ok {
			// s = S: completing pair is S∪{i}.
			r.tracker.Observe(i, size, sup-u)
		}
	}
	return true
}

// Seen returns the number of distinct coalitions folded so far.
func (r *Replay) Seen() int { return len(r.seen.vals) }

// Snapshot captures the current interim state.
func (r *Replay) Snapshot() AnytimeSnapshot {
	t := r.tracker
	snap := AnytimeSnapshot{
		Values:       t.Estimate(),
		Lo:           make([]float64, t.n),
		Hi:           make([]float64, t.n),
		Observations: make([]int, t.n),
		Seen:         r.Seen(),
		Planned:      r.planned,
	}
	for i := 0; i < t.n; i++ {
		snap.Lo[i], snap.Hi[i] = t.Interval(i)
		snap.Observations[i] = t.Observations(i)
	}
	snap.Resolved = t.Resolved()
	return snap
}

// PlanExhaustive reports whether PlanFor yields the algorithm's *complete*
// evaluation set — a prerequisite for plan-driven anytime execution and for
// sound early stopping. TMC and Stratified-Neyman expose only a certain
// prefix (later draws depend on observed utilities), so a plan-scoped
// tracker would mistake their unplanned strata for deliberate pruning and
// report falsely tight intervals.
func PlanExhaustive(alg Valuer) bool {
	switch alg.(type) {
	case *TMC, *StratifiedNeyman:
		return false
	case Planner:
		return true
	}
	return false
}
