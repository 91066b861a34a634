package fedshap

import (
	"errors"
	"fmt"
	"math"
	"time"

	"fedshap/internal/metrics"
	"fedshap/internal/shapley"
	"fedshap/internal/utility"
)

// Repeated valuation with uncertainty: sampling-based algorithms are random
// in their coalition choices, so a payout used in a contract should come
// with run-to-run spread. ValueRepeated reruns the algorithm under
// different sampling seeds against one shared utility cache (training is
// deterministic, so coalitions are only ever trained once) and reports
// per-client mean, standard deviation and a normal-approximation 95%
// confidence interval.

// RepeatedReport summarises repeated valuation runs.
type RepeatedReport struct {
	// Algorithm is the Valuer's display name.
	Algorithm string
	// Names mirrors ClientNames.
	Names []string
	// Mean[i] is client i's mean value across runs.
	Mean Values
	// Std[i] is the sample standard deviation across runs.
	Std Values
	// CI95[i] is the half-width of the 95% confidence interval of the
	// mean (1.96·std/√runs).
	CI95 Values
	// Runs is the number of repetitions.
	Runs int
	// Seconds is the total wall-clock time.
	Seconds float64
	// Evaluations is the number of distinct coalitions trained across all
	// runs (shared cache: repeats are free).
	Evaluations int
}

// ValueRepeated runs the algorithm `runs` times with seeds seed, seed+1, …
// and aggregates. Exact algorithms yield zero spread; sampling algorithms
// yield honest run-to-run uncertainty.
func (f *Federation) ValueRepeated(alg Valuer, runs int, seed int64) (*RepeatedReport, error) {
	if runs < 2 {
		return nil, errors.New("fedshap: ValueRepeated needs at least two runs")
	}
	spec := f.spec()
	oracle := utility.NewFLOracle(*spec)
	start := time.Now()
	all := make([][]float64, 0, runs)
	for r := 0; r < runs; r++ {
		v, _, err := shapley.RunPooled(&shapley.Context{Spec: spec}, oracle, alg, seed+int64(r), 1)
		if err != nil {
			return nil, fmt.Errorf("fedshap: run %d: %w", r, err)
		}
		all = append(all, v)
	}
	n := f.N()
	rep := &RepeatedReport{
		Algorithm: alg.Name(),
		Names:     f.ClientNames(),
		Mean:      make(Values, n),
		Std:       make(Values, n),
		CI95:      make(Values, n),
		Runs:      runs,
		Seconds:   time.Since(start).Seconds(),
	}
	col := make([]float64, runs)
	for i := 0; i < n; i++ {
		for r := range all {
			col[r] = all[r][i]
		}
		rep.Mean[i] = metrics.Mean(col)
		rep.Std[i] = metrics.StdDev(col)
		rep.CI95[i] = 1.96 * rep.Std[i] / math.Sqrt(float64(runs))
	}
	rep.Evaluations = oracle.Evals()
	return rep, nil
}

// PerRoundValues decomposes data values over training rounds: for each
// FedAvg round it computes the exact MC-SV of the single-round
// reconstruction game (the quantity λ-MR aggregates), exposing *when* in
// training each client contributed. Requires a parametric model.
func (f *Federation) PerRoundValues() ([]Values, error) {
	spec := f.spec()
	rounds, err := shapley.PerRoundValues(spec)
	if err != nil {
		return nil, fmt.Errorf("fedshap: per-round values: %w", err)
	}
	return rounds, nil
}
