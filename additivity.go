package fedshap

import (
	"errors"
	"fmt"
	"math"
	"time"

	"fedshap/internal/shapley"
	"fedshap/internal/utility"
)

// Linear additivity (Def. 2, property iii): data values are additive across
// disjoint test sets, so valuing per test slice lets new test data be
// integrated without invalidating existing values. ValueByTestSlice exposes
// that decomposition.

// SliceReport is the per-slice valuation of ValueByTestSlice.
type SliceReport struct {
	// SliceValues[k][i] is client i's value on test slice k.
	SliceValues []Values
	// Total[i] is the value on the full test set; for exact valuation it
	// equals the sum over slices (linear additivity).
	Total Values
	// Seconds is the combined wall-clock time.
	Seconds float64
}

// ValueByTestSlice splits the test set into the given disjoint row-index
// slices, values every client against each slice separately, and also
// against the union. For exact algorithms the slice values sum to the union
// value exactly (weighted by slice sizes, since utility is accuracy — a
// per-sample average rather than a sum); the returned SliceValues are
// already size-weighted so they add up.
func (f *Federation) ValueByTestSlice(alg Valuer, slices [][]int, seed int64) (*SliceReport, error) {
	if len(slices) == 0 {
		return nil, errors.New("fedshap: ValueByTestSlice needs at least one slice")
	}
	total := 0
	seen := make(map[int]bool)
	for _, sl := range slices {
		for _, idx := range sl {
			if idx < 0 || idx >= f.test.Len() {
				return nil, fmt.Errorf("fedshap: test index %d out of range", idx)
			}
			if seen[idx] {
				return nil, fmt.Errorf("fedshap: test index %d appears in two slices", idx)
			}
			seen[idx] = true
			total++
		}
	}

	start := time.Now()
	out := &SliceReport{}
	for k, sl := range slices {
		sub := f.test.Subset(fmt.Sprintf("%s/slice-%d", f.test.Name, k), sl)
		spec := f.spec()
		spec.Test = sub
		v, _, err := shapley.RunPooled(&shapley.Context{Spec: spec}, utility.NewFLOracle(*spec), alg, seed+int64(k), 1)
		if err != nil {
			return nil, fmt.Errorf("fedshap: slice %d: %w", k, err)
		}
		// Weight by slice share so per-slice accuracies compose into the
		// union accuracy: acc(T) = Σ_k (|T_k|/|T|)·acc(T_k).
		w := float64(len(sl)) / float64(total)
		weighted := v.Clone()
		for i := range weighted {
			weighted[i] *= w
		}
		out.SliceValues = append(out.SliceValues, weighted)
	}

	// Union value over exactly the rows covered by the slices.
	var unionIdx []int
	for _, sl := range slices {
		unionIdx = append(unionIdx, sl...)
	}
	union := f.test.Subset(f.test.Name+"/union", unionIdx)
	spec := f.spec()
	spec.Test = union
	v, _, err := shapley.RunPooled(&shapley.Context{Spec: spec}, utility.NewFLOracle(*spec), alg, seed+997, 1)
	if err != nil {
		return nil, fmt.Errorf("fedshap: union: %w", err)
	}
	out.Total = v
	out.Seconds = time.Since(start).Seconds()
	return out, nil
}

// AdditivityGap returns the maximum absolute difference between the summed
// slice values and the union values — zero (up to float error) for exact
// valuation, a diagnostic for approximate ones.
func (r *SliceReport) AdditivityGap() float64 {
	if len(r.SliceValues) == 0 {
		return 0
	}
	n := len(r.Total)
	var gap float64
	for i := 0; i < n; i++ {
		var sum float64
		for _, sv := range r.SliceValues {
			sum += sv[i]
		}
		if d := math.Abs(sum - r.Total[i]); d > gap {
			gap = d
		}
	}
	return gap
}
