package experiments

import (
	"fmt"
	"math/rand"

	"fedshap/internal/combin"
	"fedshap/internal/dataset"
	"fedshap/internal/fl"
	"fedshap/internal/metrics"
	"fedshap/internal/model"
	"fedshap/internal/shapley"
	"fedshap/internal/tensor"
	"fedshap/internal/theory"
	"fedshap/internal/utility"
)

// Executable counterparts of the paper's theoretical claims, runnable from
// the bench harness: Lemma 1's closed-form expected value and Theorem 3's
// truncation-error bound, validated on actual FL linear regression.

// LinRegProblemConfig parameterises the Donahue-Kleinberg linear-regression
// federation used by the theory experiments.
type LinRegProblemConfig struct {
	N        int     // clients
	T        int     // samples per client
	Dim      int     // feature dimensionality
	Sigma    float64 // noise standard deviation
	TestSize int
	Seed     int64
}

// DefaultLinRegProblem sizes the theory experiment so OLS expectations are
// well-defined (t > dim + 1).
func DefaultLinRegProblem(seed int64) LinRegProblemConfig {
	return LinRegProblemConfig{N: 5, T: 40, Dim: 3, Sigma: 0.5, TestSize: 600, Seed: seed}
}

// NewLinRegProblem builds an FL linear-regression valuation problem with
// negative-MSE utility: standard-Gaussian features, a shared ground-truth
// weight vector, and homoscedastic noise — exactly the analysis model of
// Lemma 1 and Theorems 2-3. The FL training for a coalition is realised as
// exact OLS on the merged data (the fixed point all FedAvg rounds converge
// to for quadratic objectives), keeping the experiment free of
// optimisation noise.
func NewLinRegProblem(cfg LinRegProblemConfig) *Problem {
	rng := rand.New(rand.NewSource(cfg.Seed))
	wTrue := make([]float64, cfg.Dim)
	for j := range wTrue {
		wTrue[j] = rng.NormFloat64()
	}
	gen := func(name string, n int) (*dataset.Dataset, []float64) {
		d := dataset.New(name, n, cfg.Dim, 1)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			var s float64
			for j := 0; j < cfg.Dim; j++ {
				v := rng.NormFloat64()
				d.X.Set(i, j, v)
				s += wTrue[j] * v
			}
			y[i] = s + rng.NormFloat64()*cfg.Sigma
		}
		return d, y
	}

	clients := make([]*dataset.Dataset, cfg.N)
	targets := make([][]float64, cfg.N)
	for i := range clients {
		clients[i], targets[i] = gen(fmt.Sprintf("linreg/client-%d", i), cfg.T)
	}
	test, testY := gen("linreg/test", cfg.TestSize)

	// The oracle bypasses fl.Train: coalition → merged OLS fit → −MSE.
	// Real-valued targets live alongside the dataset rows.
	spec := &utility.FLSpec{
		Factory: func(seed int64) model.Model { return model.NewLinReg(cfg.Dim) },
		Clients: clients,
		Test:    test,
		Config:  fl.DefaultConfig(cfg.Seed),
		Metric:  model.Accuracy, // unused; see customEval below
	}
	p := &Problem{Name: fmt.Sprintf("linreg/n=%d", cfg.N), N: cfg.N, Spec: spec}
	p.customEval = func(s combin.Coalition) float64 {
		var rows int
		for _, i := range s.Members() {
			rows += clients[i].Len()
		}
		if rows == 0 {
			// Untrained (zero) model: −MSE of predicting 0.
			m := model.NewLinReg(cfg.Dim)
			return model.NegMSEFloat(m, test.X, testY)
		}
		X := tensor.NewMatrix(rows, cfg.Dim)
		y := make([]float64, 0, rows)
		r := 0
		for _, i := range s.Members() {
			c := clients[i]
			for k := 0; k < c.Len(); k++ {
				copy(X.Row(r), c.X.Row(k))
				r++
			}
			y = append(y, targets[i]...)
		}
		m := model.NewLinReg(cfg.Dim)
		m.FitOLS(X, y, 1e-9)
		return model.NegMSEFloat(m, test.X, testY)
	}
	return p
}

// LemmaOne runs the Lemma 1 experiment: exact MC-SV values on FL linear
// regression, averaged over repetitions, against the closed-form
// prediction E[φ̂ᵢ] = (m0 − μe·|x|/(nt−|x|−1))/n.
func LemmaOne(cfg LinRegProblemConfig, reps int) *Report {
	muE := cfg.Sigma * cfg.Sigma
	rep := &Report{
		Title:  "Lemma 1 — expected data value under FL linear regression",
		Header: []string{"quantity", "value"},
	}
	var empirical, m0sum float64
	for r := 0; r < reps; r++ {
		c := cfg
		c.Seed = cfg.Seed + int64(r)*101
		p := NewLinRegProblem(c)
		values, _ := ExactValues(p, c.Seed)
		empirical += metrics.Mean(values) / float64(reps)
		m0sum += -p.Oracle().U(combin.Empty) / float64(reps) // MSE of the zero model
	}
	predicted := theory.LemmaOneValue(cfg.N, cfg.T, cfg.Dim, muE, m0sum)
	rep.Rows = append(rep.Rows,
		[]string{"empirical mean φ (exact MC-SV)", fmt.Sprintf("%.5f", empirical)},
		[]string{"Lemma 1 closed form", fmt.Sprintf("%.5f", predicted)},
		[]string{"relative gap", fmt.Sprintf("%.4f", relGap(empirical, predicted))},
	)
	return rep
}

// TheoremThree runs the Theorem 3 experiment: the truncation error of
// K-Greedy at each k* against the theoretical bound. The bound governs the
// *expected mean value* |E[φ̂^{k*}] − E[φ]|/E[φ]; the single-draw ℓ2 vector
// error is reported alongside for context (it includes cross-client
// fluctuation the bound does not cover), so the "mean gap" column is the
// one the bound must dominate (averaged over draws).
func TheoremThree(cfg LinRegProblemConfig, reps int) *Report {
	if reps < 1 {
		reps = 1
	}
	rep := &Report{
		Title:  "Theorem 3 — truncation error vs bound (FL linear regression)",
		Header: []string{"k*", "mean gap", "l2 vec err", "bound"},
	}
	meanGap := make([]float64, cfg.N+1)
	vecErr := make([]float64, cfg.N+1)
	for r := 0; r < reps; r++ {
		c := cfg
		c.Seed = cfg.Seed + int64(r)*211
		p := NewLinRegProblem(c)
		exact, _ := ExactValues(p, c.Seed)
		exactMean := metrics.Mean(exact)
		for k := 1; k <= cfg.N; k++ {
			res := RunAlgorithm(p, &shapley.KGreedy{K: k}, exact, c.Seed+int64(k))
			meanGap[k] += relGap(metrics.Mean(res.Values), exactMean) / float64(reps)
			vecErr[k] += res.Err / float64(reps)
		}
	}
	for k := 1; k <= cfg.N; k++ {
		bound := theory.TheoremThreeBound(cfg.N, cfg.T, cfg.Dim, k)
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%.4f", meanGap[k]),
			fmt.Sprintf("%.4f", vecErr[k]),
			fmt.Sprintf("%.4f", bound),
		})
	}
	return rep
}

func relGap(a, b float64) float64 {
	den := b
	if den == 0 {
		den = 1
	}
	g := (a - b) / den
	if g < 0 {
		return -g
	}
	return g
}
