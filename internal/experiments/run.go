package experiments

import (
	"errors"
	"fmt"
	"math"
	"time"

	"fedshap/internal/combin"
	"fedshap/internal/metrics"
	"fedshap/internal/shapley"
	"fedshap/internal/utility"
)

// Result records one algorithm run on one problem.
type Result struct {
	// Algorithm is the display name.
	Algorithm string
	// Values are the estimated data values (nil when RunErr is set).
	Values shapley.Values
	// Seconds is the wall-clock run time, including all training and
	// evaluation the algorithm triggered.
	Seconds float64
	// Evals is the number of distinct coalition evaluations consumed from
	// the oracle (0 for purely gradient-based methods).
	Evals int
	// Err is the ℓ2 relative error against the exact values (NaN when no
	// ground truth was provided).
	Err float64
	// NotApplicable marks the "\" cells of Table V: RunErr wraps
	// shapley.ErrNotApplicable.
	NotApplicable bool
	// RunErr is the run's failure, prefixed with the algorithm's name.
	RunErr error
}

// RunAlgorithm executes one algorithm on a fresh oracle for the problem and
// scores it against the exact values (pass nil when ground truth is
// unavailable, e.g. Fig. 9).
func RunAlgorithm(p *Problem, alg shapley.Valuer, exact shapley.Values, seed int64) Result {
	return RunWithOracle(p, p.Oracle(), alg, exact, seed)
}

// RunWithOracle is RunAlgorithm against a caller-supplied oracle, wrapped
// in a per-run budget view: sharing one oracle across repetitions is sound
// for error-only experiments (utilities are deterministic; only the
// sampling varies) and avoids retraining identical coalitions — the
// γ-sweeps of Figs. 7 and 10 use it. The budget meter each algorithm
// self-limits against counts only this run's distinct coalitions, so
// semantics match a fresh oracle exactly; wall-clock reflects cache hits.
// Runs are serial; a caller that wants the evaluation pool calls
// shapley.RunPooled, as cmd/fedval does.
func RunWithOracle(p *Problem, oracle *utility.Oracle, alg shapley.Valuer, exact shapley.Values, seed int64) Result {
	start := time.Now()
	values, requests, err := shapley.RunPooled(&shapley.Context{Spec: p.Spec}, oracle, alg, seed, 1)
	res := Result{
		Algorithm: alg.Name(),
		Values:    values,
		Seconds:   time.Since(start).Seconds(),
		Evals:     requests,
		Err:       math.NaN(),
	}
	if err != nil {
		res.RunErr = fmt.Errorf("%s: %w", res.Algorithm, err)
		res.NotApplicable = errors.Is(err, shapley.ErrNotApplicable)
		return res
	}
	if exact != nil {
		res.Err = metrics.L2RelativeError(values, exact)
	}
	return res
}

// ExactValues computes the ground-truth MC-SV values on a fresh oracle and
// returns them with the evaluation time (the "MC-Shapley" row of the
// tables).
func ExactValues(p *Problem, seed int64) (shapley.Values, Result) {
	res := RunAlgorithm(p, shapley.ExactMC{}, nil, seed)
	return res.Values, res
}

// PermShapleyTime estimates the Perm-Shapley row. For n ≤ maxExact it runs
// the enumeration for real (utilities cached, as any implementation would);
// beyond that it measures the per-coalition cost τ on a handful of
// coalitions and extrapolates the naive n!·n evaluation count, which is how
// the paper reports 10⁶-10⁹-second entries.
func PermShapleyTime(p *Problem, maxExact int, seed int64) Result {
	if p.N <= maxExact {
		return RunAlgorithm(p, shapley.ExactPerm{}, nil, seed)
	}
	oracle := p.Oracle()
	const probes = 3
	start := time.Now()
	for i := 0; i < probes && i < p.N; i++ {
		oracle.U(combin.NewCoalition(i))
	}
	tau := time.Since(start).Seconds() / float64(probes)
	return Result{
		Algorithm: "Perm-Shapley",
		Seconds:   tau * combin.Factorial(p.N) * float64(p.N),
		Err:       math.NaN(),
	}
}

// StandardSuite returns the paper's compared algorithms for a budget γ, in
// Table IV column order (Perm- and MC-Shapley are handled separately as
// ground truth rows).
func StandardSuite(gamma int) []shapley.Valuer {
	return []shapley.Valuer{
		shapley.DIGFL{},
		shapley.NewTMC(gamma),
		shapley.NewGTB(gamma),
		shapley.NewCCShapley(gamma),
		shapley.GTGShapley{},
		shapley.OR{},
		&shapley.LambdaMR{},
		shapley.NewIPSS(gamma),
	}
}

// SamplingSuite returns just the sampling-based algorithms (the ones the γ
// sweeps of Figs. 7-9 compare).
func SamplingSuite(gamma int) []shapley.Valuer {
	return []shapley.Valuer{
		shapley.NewTMC(gamma),
		shapley.NewGTB(gamma),
		shapley.NewCCShapley(gamma),
		shapley.NewIPSS(gamma),
	}
}
