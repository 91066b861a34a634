// Package metrics implements the evaluation measures of the paper's Sec. V:
// the ℓ2 relative approximation error (Eq. 21), the property-based proxies
// used when ground truth is infeasible (Fig. 9: no-free-rider and
// symmetric-fairness violations), and the run-to-run variance statistics of
// Fig. 10, plus rank-quality measures useful for downstream auditing.
package metrics

import (
	"math"
)

// L2RelativeError returns ‖φ̂ − φ‖₂ / ‖φ‖₂ (Eq. 21). A zero ground-truth
// vector yields the absolute ℓ2 norm of the estimate.
func L2RelativeError(approx, exact []float64) float64 {
	if len(approx) != len(exact) {
		panic("metrics: L2RelativeError length mismatch")
	}
	var num, den float64
	for i := range exact {
		d := approx[i] - exact[i]
		num += d * d
		den += exact[i] * exact[i]
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num) / math.Sqrt(den)
}

// FreeRiderError measures violation of the no-free-rider property for the
// clients known to hold empty datasets: the ℓ2 norm of their assigned
// values, normalised by the ℓ2 norm of all values. Zero is perfect.
func FreeRiderError(values []float64, freeRiders []int) float64 {
	var num, den float64
	for _, v := range values {
		den += v * v
	}
	for _, i := range freeRiders {
		num += values[i] * values[i]
	}
	if den == 0 {
		return 0
	}
	return math.Sqrt(num) / math.Sqrt(den)
}

// SymmetryError measures violation of symmetric fairness for known groups
// of clients with identical datasets: the root-mean-square deviation of
// each group member's value from the group mean, normalised by the ℓ2 norm
// of all values. Zero is perfect.
func SymmetryError(values []float64, groups [][]int) float64 {
	var den float64
	for _, v := range values {
		den += v * v
	}
	var num float64
	cnt := 0
	for _, g := range groups {
		if len(g) < 2 {
			continue
		}
		var mean float64
		for _, i := range g {
			mean += values[i]
		}
		mean /= float64(len(g))
		for _, i := range g {
			d := values[i] - mean
			num += d * d
			cnt++
		}
	}
	if den == 0 || cnt == 0 {
		return 0
	}
	return math.Sqrt(num) / math.Sqrt(den)
}

// PropertyError is the Fig. 9 proxy: the mean of the free-rider and
// symmetry violations.
func PropertyError(values []float64, freeRiders []int, duplicateGroups [][]int) float64 {
	return (FreeRiderError(values, freeRiders) + SymmetryError(values, duplicateGroups)) / 2
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance (0 for fewer than two
// samples).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// VectorVariance returns the run-to-run variance of a vector estimator:
// the mean over coordinates of the per-coordinate sample variance across
// runs (runs[r][i] = value of client i in run r). This is the statistic of
// the paper's Fig. 10.
func VectorVariance(runs [][]float64) float64 {
	if len(runs) == 0 {
		return 0
	}
	n := len(runs[0])
	if n == 0 {
		return 0
	}
	var total float64
	col := make([]float64, len(runs))
	for i := 0; i < n; i++ {
		for r := range runs {
			col[r] = runs[r][i]
		}
		total += Variance(col)
	}
	return total / float64(n)
}

// KendallTau returns the Kendall rank correlation τ between two value
// vectors — a downstream-relevant measure of whether an approximation
// preserves the client *ranking* even when magnitudes drift.
func KendallTau(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("metrics: KendallTau length mismatch")
	}
	n := len(a)
	if n < 2 {
		return 1
	}
	var concordant, discordant float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			da, db := a[i]-a[j], b[i]-b[j]
			p := da * db
			switch {
			case p > 0:
				concordant++
			case p < 0:
				discordant++
			}
		}
	}
	pairs := float64(n*(n-1)) / 2
	return (concordant - discordant) / pairs
}
