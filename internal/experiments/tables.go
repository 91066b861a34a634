package experiments

import (
	"fmt"

	"fedshap/internal/combin"
	"fedshap/internal/shapley"
	"fedshap/internal/theory"
	"fedshap/internal/utility"
)

// TableConfig parameterises the Table IV / Table V runners.
type TableConfig struct {
	// Ns lists the client counts (the paper uses 3, 6, 10).
	Ns []int
	// Models lists the FL model families for the table.
	Models []ModelKind
	// Scale sizes the substrate.
	Scale Scale
	// Seed drives data generation and sampling.
	Seed int64
	// MaxExactPerm bounds real Perm-Shapley enumeration; larger n are
	// extrapolated as in the paper.
	MaxExactPerm int
}

// DefaultTableConfig mirrors the paper's Table IV setup at the given scale.
func DefaultTableConfig(sc Scale, seed int64) TableConfig {
	return TableConfig{
		Ns:           []int{3, 6, 10},
		Models:       []ModelKind{MLP, CNN},
		Scale:        sc,
		Seed:         seed,
		MaxExactPerm: 6,
	}
}

// TableIV regenerates the paper's Table IV: FEMNIST-like, MLP and CNN
// models, n ∈ {3,6,10}, all ten algorithms, time and ℓ2 error per cell.
func TableIV(cfg TableConfig) *Report {
	return valuationTable(
		"Table IV — FEMNIST-like (time seconds / l2 error)",
		cfg,
		func(n int, kind ModelKind) *Problem {
			return NewFEMNISTProblem(n, kind, cfg.Scale, cfg.Seed+int64(n)*17)
		},
	)
}

// TableV regenerates the paper's Table V: Adult-like tabular data with MLP
// and XGB models; gradient-based baselines report "\" for XGB.
func TableV(cfg TableConfig) *Report {
	if len(cfg.Models) == 0 {
		cfg.Models = []ModelKind{MLP, XGB}
	}
	return valuationTable(
		"Table V — Adult-like (time seconds / l2 error)",
		cfg,
		func(n int, kind ModelKind) *Problem {
			return NewAdultProblem(n, kind, cfg.Scale, cfg.Seed+int64(n)*19)
		},
	)
}

// valuationTable runs the full comparison grid shared by Tables IV and V.
func valuationTable(title string, cfg TableConfig, build func(int, ModelKind) *Problem) *Report {
	rep := &Report{
		Title: title,
		Header: []string{
			"model", "n", "metric",
			"Perm-Shap.", "MC-Shap.", "DIG-FL", "Ext-TMC", "Ext-GTB",
			"CC-Shap.", "GTG-Shap.", "OR", "λ-MR", "IPSS",
		},
		Notes: []string{
			"\"-\" = exact method (no approximation error); \"\\\" = not applicable to the model family",
			fmt.Sprintf("budgets per Table III / n·ln n policy; scale: %d samples/client, %d FedAvg rounds",
				cfg.Scale.PerClient, cfg.Scale.Rounds),
		},
	}
	for _, kind := range cfg.Models {
		for _, n := range cfg.Ns {
			p := build(n, kind)
			gamma := theory.GammaForN(n)

			exact, exactRes := ExactValues(p, cfg.Seed+101)
			permRes := PermShapleyTime(p, cfg.MaxExactPerm, cfg.Seed+103)

			results := make([]Result, 0, 8)
			for i, alg := range StandardSuite(gamma) {
				results = append(results, RunAlgorithm(p, alg, exact, cfg.Seed+200+int64(i)))
			}

			timeRow := []string{string(kind), fmt.Sprintf("%d", n), "Time(s)",
				fmtSecs(permRes.Seconds), fmtSecs(exactRes.Seconds)}
			errRow := []string{"", "", "Error(l2)", "-", "-"}
			for _, r := range results {
				if r.NotApplicable {
					timeRow = append(timeRow, `\`)
					errRow = append(errRow, `\`)
					continue
				}
				if r.RunErr != nil {
					timeRow = append(timeRow, "err")
					errRow = append(errRow, "err")
					continue
				}
				timeRow = append(timeRow, fmtSecs(r.Seconds))
				errRow = append(errRow, fmtErr(r.Err, false))
			}
			rep.Rows = append(rep.Rows, timeRow, errRow)
		}
	}
	return rep
}

// TableI reproduces the worked example of the paper's Table I / Example 1:
// the three-hospital utility table and its exact Shapley values, computed
// by ExactMC (Def. 3) over the table.
func TableI() *Report {
	u := map[combin.Coalition]float64{
		combin.Empty:              0.10,
		combin.NewCoalition(0):    0.50,
		combin.NewCoalition(1):    0.70,
		combin.NewCoalition(2):    0.60,
		combin.NewCoalition(0, 1): 0.80,
		combin.NewCoalition(0, 2): 0.90,
		combin.NewCoalition(1, 2): 0.90,
		combin.FullCoalition(3):   0.96,
	}
	phi, _, err := shapley.RunPooled(&shapley.Context{}, utility.TableOracle(3, u), shapley.ExactMC{}, 0, 1)
	rep := &Report{
		Title:  "Table I — worked example (Example 1)",
		Header: []string{"client", "exact SV (MC scheme)"},
		Notes:  []string{"see TestExample1 for the line-by-line reproduction"},
	}
	for i := range 3 {
		cell := "err"
		if err == nil {
			cell = fmt.Sprintf("%.3f", phi[i])
		}
		rep.Rows = append(rep.Rows, []string{fmt.Sprintf("hospital %d", i+1), cell})
	}
	if err != nil {
		rep.Notes = append(rep.Notes, err.Error())
	}
	return rep
}
