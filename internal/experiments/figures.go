package experiments

import (
	"fmt"

	"fedshap/internal/metrics"
	"fedshap/internal/shapley"
	"fedshap/internal/theory"
)

// FigConfig parameterises the figure runners.
type FigConfig struct {
	// N is the client count (figures mostly use 10).
	N int
	// Models lists the model families to sweep.
	Models []ModelKind
	// Scale sizes the substrate.
	Scale Scale
	// Seed drives generation and sampling.
	Seed int64
}

// DefaultFigConfig mirrors the paper's figure setups at the given scale.
func DefaultFigConfig(sc Scale, seed int64) FigConfig {
	return FigConfig{N: 10, Models: []ModelKind{MLP, CNN}, Scale: sc, Seed: seed}
}

// Fig1b regenerates the paper's Fig. 1(b) motivation scatter: time vs error
// of every algorithm on the FEMNIST-like problem with ten clients.
func Fig1b(cfg FigConfig) *Report {
	p := NewFEMNISTProblem(cfg.N, MLP, cfg.Scale, cfg.Seed)
	gamma := theory.GammaForN(cfg.N)
	exact, exactRes := ExactValues(p, cfg.Seed+1)

	rep := &Report{
		Title:  fmt.Sprintf("Fig. 1(b) — time vs error, %s", p.Name),
		Header: []string{"algorithm", "time(s)", "error(l2)"},
	}
	rep.Rows = append(rep.Rows, []string{"MC-Shapley", fmtSecs(exactRes.Seconds), "-"})
	for i, alg := range StandardSuite(gamma) {
		r := RunAlgorithm(p, alg, exact, cfg.Seed+10+int64(i))
		rep.Rows = append(rep.Rows, []string{r.Algorithm, fmtSecs(r.Seconds), fmtErr(r.Err, r.NotApplicable)})
	}
	return rep
}

// Fig4 regenerates Fig. 4: the key-combinations probe. K-Greedy relative
// error against exact MC-SV for K = 1..n on the FEMNIST-like problem.
func Fig4(cfg FigConfig) *Report {
	kind := CNN // the paper's empirical study uses the CNN
	if len(cfg.Models) > 0 {
		kind = cfg.Models[0]
	}
	p := NewFEMNISTProblem(cfg.N, kind, cfg.Scale, cfg.Seed)
	exact, _ := ExactValues(p, cfg.Seed+1)

	rep := &Report{
		Title:  fmt.Sprintf("Fig. 4 — K-Greedy error vs K, %s", p.Name),
		Header: []string{"K", "error(l2)", "evals"},
	}
	for k := 1; k <= p.N; k++ {
		r := RunAlgorithm(p, &shapley.KGreedy{K: k}, exact, cfg.Seed+int64(k))
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", k), fmtErr(r.Err, false), fmt.Sprintf("%d", r.Evals),
		})
	}
	rep.Notes = append(rep.Notes, "paper: error < 1% already at K=2; shape = fast drop then plateau")
	return rep
}

// Fig6 regenerates Fig. 6: the five synthetic partition setups (a)-(e), per
// model family, reporting every algorithm's time and error. Setups (d) and
// (e) use the paper's mid-range noise level 0.10.
func Fig6(cfg FigConfig) *Report {
	const noise = 0.10
	rep := &Report{
		Title:  "Fig. 6 — synthetic setups (a)-(e)",
		Header: []string{"setup", "model", "algorithm", "time(s)", "error(l2)"},
		Notes:  []string{"noise level 0.10 for setups (d) and (e)"},
	}
	gamma := theory.GammaForN(cfg.N)
	for _, setup := range AllSyntheticSetups() {
		for _, kind := range cfg.Models {
			p := NewSyntheticProblem(setup, cfg.N, kind, cfg.Scale, noise, cfg.Seed)
			exact, _ := ExactValues(p, cfg.Seed+2)
			for i, alg := range StandardSuite(gamma) {
				r := RunAlgorithm(p, alg, exact, cfg.Seed+30+int64(i))
				rep.Rows = append(rep.Rows, []string{
					string(setup), string(kind), r.Algorithm,
					fmtSecs(r.Seconds), fmtErr(r.Err, r.NotApplicable),
				})
			}
		}
	}
	return rep
}

// Fig6Noise regenerates the noise sweeps behind Fig. 6(d) and 6(e): for
// label-noise and feature-noise levels 0%..20% (the paper's range), the
// error of every applicable algorithm. The noisy half of the clients
// degrades as noise grows; algorithms that stay accurate across the sweep
// are the stable ones the paper calls out (λ-MR and IPSS in (d)).
func Fig6Noise(cfg FigConfig, levels []float64) *Report {
	if len(levels) == 0 {
		levels = []float64{0, 0.05, 0.10, 0.15, 0.20}
	}
	kind := MLP
	if len(cfg.Models) > 0 {
		kind = cfg.Models[0]
	}
	rep := &Report{
		Title:  "Fig. 6(d)/(e) — error vs noise level",
		Header: []string{"setup", "noise", "algorithm", "error(l2)"},
	}
	gamma := theory.GammaForN(cfg.N)
	for _, setup := range []SyntheticSetup{SameSizeNoisyLbl, SameSizeNoisyFeat} {
		for _, lvl := range levels {
			p := NewSyntheticProblem(setup, cfg.N, kind, cfg.Scale, lvl, cfg.Seed)
			exact, _ := ExactValues(p, cfg.Seed+2)
			for i, alg := range StandardSuite(gamma) {
				r := RunAlgorithm(p, alg, exact, cfg.Seed+50+int64(i))
				rep.Rows = append(rep.Rows, []string{
					string(setup), fmt.Sprintf("%.2f", lvl), r.Algorithm,
					fmtErr(r.Err, r.NotApplicable),
				})
			}
		}
	}
	return rep
}

// Fig7 regenerates Fig. 7: approximation error of the sampling-based
// algorithms as the budget γ grows, with across-run mean and standard
// deviation over Scale.Reps repetitions.
func Fig7(cfg FigConfig, gammas []int) *Report {
	if len(gammas) == 0 {
		gammas = []int{8, 16, 32, 64, 128, 256}
	}
	rep := &Report{
		Title:  "Fig. 7 — error vs sampling rounds γ",
		Header: []string{"model", "γ", "algorithm", "mean error", "std error"},
	}
	for _, kind := range cfg.Models {
		p := NewFEMNISTProblem(cfg.N, kind, cfg.Scale, cfg.Seed)
		exact, _ := ExactValues(p, cfg.Seed+1)
		// One shared oracle per problem: utilities are deterministic, so
		// repetitions only redo the sampling, not the training.
		oracle := p.Oracle()
		for _, gamma := range gammas {
			for ai, alg := range SamplingSuite(gamma) {
				errs := make([]float64, 0, cfg.Scale.Reps)
				for rep := 0; rep < cfg.Scale.Reps; rep++ {
					r := RunWithOracle(p, oracle, SamplingSuite(gamma)[ai], exact,
						cfg.Seed+int64(1000*gamma+100*ai+rep))
					errs = append(errs, r.Err)
				}
				rep.Rows = append(rep.Rows, []string{
					string(kind), fmt.Sprintf("%d", gamma), alg.Name(),
					fmt.Sprintf("%.4f", metrics.Mean(errs)),
					fmt.Sprintf("%.4f", metrics.StdDev(errs)),
				})
			}
		}
	}
	return rep
}

// Fig8 regenerates Fig. 8: Pareto (time, error) points per sampling
// algorithm per budget, for each n and model family — the efficiency/
// effectiveness trade-off curves.
func Fig8(cfg FigConfig, ns []int, gammas []int) *Report {
	if len(ns) == 0 {
		ns = []int{3, 6, 10}
	}
	rep := &Report{
		Title:  "Fig. 8 — Pareto curves (mean time vs mean error per γ)",
		Header: []string{"model", "n", "γ", "algorithm", "mean time(s)", "mean error"},
	}
	for _, kind := range cfg.Models {
		for _, n := range ns {
			p := NewFEMNISTProblem(n, kind, cfg.Scale, cfg.Seed+int64(n))
			exact, _ := ExactValues(p, cfg.Seed+1)
			sweep := gammas
			if len(sweep) == 0 {
				base := theory.GammaForN(n)
				sweep = []int{base, 2 * base, 4 * base}
			}
			// Honest per-run timing needs fresh oracles, so cap the
			// repetition count to keep full-grid runs tractable.
			reps := cfg.Scale.Reps
			if reps > 5 {
				reps = 5
			}
			for _, gamma := range sweep {
				for ai, alg := range SamplingSuite(gamma) {
					var ts, es []float64
					for rr := 0; rr < reps; rr++ {
						r := RunAlgorithm(p, SamplingSuite(gamma)[ai], exact,
							cfg.Seed+int64(10000*gamma+100*ai+rr))
						ts = append(ts, r.Seconds)
						es = append(es, r.Err)
					}
					rep.Rows = append(rep.Rows, []string{
						string(kind), fmt.Sprintf("%d", n), fmt.Sprintf("%d", gamma),
						alg.Name(),
						fmt.Sprintf("%.4f", metrics.Mean(ts)),
						fmt.Sprintf("%.4f", metrics.Mean(es)),
					})
				}
			}
		}
	}
	return rep
}

// Fig9 regenerates Fig. 9: scalability over large federations with 5% free
// riders and 5% duplicated datasets; the error column is the property proxy
// (no-free-rider + symmetric-fairness violations), since exact SV is
// infeasible at this scale. Budgets follow the paper's γ = n·log n.
func Fig9(cfg FigConfig, ns []int) *Report {
	if len(ns) == 0 {
		ns = []int{20, 40, 60, 80, 100}
	}
	kind := MLP
	if len(cfg.Models) > 0 {
		kind = cfg.Models[0]
	}
	rep := &Report{
		Title:  "Fig. 9 — scalability (property-proxy error)",
		Header: []string{"n", "γ", "algorithm", "time(s)", "property error"},
		Notes:  []string{"5% free riders + 5% duplicates; error = mean of free-rider and symmetry violations"},
	}
	for _, n := range ns {
		p := NewScalabilityProblem(n, kind, cfg.Scale, cfg.Seed+int64(n))
		gamma := theory.GammaForN(n)
		for ai, alg := range SamplingSuite(gamma) {
			r := RunAlgorithm(p, alg, nil, cfg.Seed+int64(100*ai))
			propErr := metrics.PropertyError(r.Values, p.FreeRiders, p.DuplicateGroups)
			rep.Rows = append(rep.Rows, []string{
				fmt.Sprintf("%d", n), fmt.Sprintf("%d", gamma), alg.Name(),
				fmtSecs(r.Seconds), fmt.Sprintf("%.4f", propErr),
			})
		}
	}
	return rep
}

// Fig10 regenerates Fig. 10: the run-to-run variance of the unified
// stratified framework (Alg. 1) under the MC-SV and CC-SV schemes, per γ,
// per n, per model family — the empirical counterpart of Theorem 2. The
// oracle is shared across repetitions (utilities are deterministic), so the
// measured variance is pure sampling variance, as in the paper.
func Fig10(cfg FigConfig, ns []int, gammas []int) *Report {
	if len(ns) == 0 {
		ns = []int{3, 6, 10}
	}
	rep := &Report{
		Title:  "Fig. 10 — variance of MC-SV vs CC-SV in Alg. 1",
		Header: []string{"model", "n", "γ", "Var[MC]", "Var[CC]"},
	}
	for _, kind := range cfg.Models {
		for _, n := range ns {
			p := NewFEMNISTProblem(n, kind, cfg.Scale, cfg.Seed+int64(n))
			oracle := p.Oracle() // shared: variance comes from sampling only
			sweep := gammas
			if len(sweep) == 0 {
				sweep = []int{n, 2 * n, 4 * n, 1 << uint(n)}
			}
			for _, gamma := range sweep {
				variance := func(scheme shapley.Scheme) float64 {
					var runs [][]float64
					for rr := 0; rr < cfg.Scale.Reps; rr++ {
						r := RunWithOracle(p, oracle, shapley.NewStratified(scheme, gamma), nil, cfg.Seed+int64(1000*gamma+rr))
						if r.RunErr == nil {
							runs = append(runs, r.Values)
						}
					}
					return metrics.VectorVariance(runs)
				}
				rep.Rows = append(rep.Rows, []string{
					string(kind), fmt.Sprintf("%d", n), fmt.Sprintf("%d", gamma),
					fmt.Sprintf("%.6f", variance(shapley.MC)),
					fmt.Sprintf("%.6f", variance(shapley.CC)),
				})
			}
		}
	}
	return rep
}

// Ablations compares the paper-faithful IPSS against the two design-choice
// ablations (Horvitz-Thompson rescaling of the sampled stratum; unbalanced
// P sampling), at equal budget over repeated runs — E-AB1/E-AB2 in
// ARCHITECTURE.md, Paper experiment map.
func Ablations(cfg FigConfig) *Report {
	p := NewFEMNISTProblem(cfg.N, MLP, cfg.Scale, cfg.Seed)
	exact, _ := ExactValues(p, cfg.Seed+1)
	gamma := theory.GammaForN(cfg.N)
	variants := []shapley.Valuer{
		shapley.NewIPSS(gamma),
		&shapley.IPSS{Gamma: gamma, RescaleSampledStratum: true},
		&shapley.IPSS{Gamma: gamma, UnbalancedP: true},
	}
	rep := &Report{
		Title:  fmt.Sprintf("Ablations — IPSS design choices (γ=%d, %s)", gamma, p.Name),
		Header: []string{"variant", "mean error", "std error"},
	}
	for vi, v := range variants {
		var errs []float64
		for rr := 0; rr < cfg.Scale.Reps; rr++ {
			r := RunAlgorithm(p, v, exact, cfg.Seed+int64(100*vi+rr))
			errs = append(errs, r.Err)
		}
		rep.Rows = append(rep.Rows, []string{
			v.Name(),
			fmt.Sprintf("%.4f", metrics.Mean(errs)),
			fmt.Sprintf("%.4f", metrics.StdDev(errs)),
		})
	}
	return rep
}
