package fedshap

// One testing.B benchmark per table and figure of the paper
// (ARCHITECTURE.md, Paper experiment map), plus the design-choice
// ablations and the micro-benchmarks of the substrate. Benchmarks run at
// Tiny scale so `go test -bench=.` finishes in minutes; `cmd/benchtab` and
// `cmd/benchfig` regenerate the full-size rows.

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fedshap/internal/combin"
	"fedshap/internal/experiments"
	"fedshap/internal/shapley"
	"fedshap/internal/theory"
	"fedshap/internal/utility"
)

func benchScale() experiments.Scale {
	sc := experiments.Tiny()
	sc.Reps = 3
	return sc
}

func benchTableConfig(ns []int, models []experiments.ModelKind) experiments.TableConfig {
	return experiments.TableConfig{
		Ns: ns, Models: models, Scale: benchScale(), Seed: 1, MaxExactPerm: 4,
	}
}

// BenchmarkTableIV_MLP regenerates the MLP block of Table IV (E-T4).
func BenchmarkTableIV_MLP(b *testing.B) {
	cfg := benchTableConfig([]int{3, 6}, []experiments.ModelKind{experiments.MLP})
	for i := 0; i < b.N; i++ {
		experiments.TableIV(cfg)
	}
}

// BenchmarkTableIV_CNN regenerates the CNN block of Table IV (E-T4).
func BenchmarkTableIV_CNN(b *testing.B) {
	cfg := benchTableConfig([]int{3}, []experiments.ModelKind{experiments.CNN})
	for i := 0; i < b.N; i++ {
		experiments.TableIV(cfg)
	}
}

// BenchmarkTableV_MLP regenerates the MLP block of Table V (E-T5).
func BenchmarkTableV_MLP(b *testing.B) {
	cfg := benchTableConfig([]int{3, 6}, []experiments.ModelKind{experiments.MLP})
	for i := 0; i < b.N; i++ {
		experiments.TableV(cfg)
	}
}

// BenchmarkTableV_XGB regenerates the XGB block of Table V (E-T5),
// including the not-applicable gradient columns.
func BenchmarkTableV_XGB(b *testing.B) {
	cfg := benchTableConfig([]int{3}, []experiments.ModelKind{experiments.XGB})
	for i := 0; i < b.N; i++ {
		experiments.TableV(cfg)
	}
}

// BenchmarkFig1b regenerates the motivation scatter (E-F1b).
func BenchmarkFig1b(b *testing.B) {
	cfg := experiments.FigConfig{N: 6, Models: []experiments.ModelKind{experiments.MLP}, Scale: benchScale(), Seed: 1}
	for i := 0; i < b.N; i++ {
		experiments.Fig1b(cfg)
	}
}

// BenchmarkFig4KGreedy regenerates the key-combinations probe (E-F4).
func BenchmarkFig4KGreedy(b *testing.B) {
	cfg := experiments.FigConfig{N: 6, Models: []experiments.ModelKind{experiments.MLP}, Scale: benchScale(), Seed: 1}
	for i := 0; i < b.N; i++ {
		experiments.Fig4(cfg)
	}
}

// benchFig6 runs one Fig. 6 synthetic setup (E-F6).
func benchFig6(b *testing.B, setup experiments.SyntheticSetup) {
	b.Helper()
	sc := benchScale()
	gamma := theory.GammaForN(6)
	for i := 0; i < b.N; i++ {
		p := experiments.NewSyntheticProblem(setup, 6, experiments.MLP, sc, 0.1, int64(i))
		exact, _ := experiments.ExactValues(p, 1)
		for _, alg := range experiments.StandardSuite(gamma) {
			experiments.RunAlgorithm(p, alg, exact, int64(i+2))
		}
	}
}

// The five Fig. 6 setups.
func BenchmarkFig6_SameSizeSameDist(b *testing.B)  { benchFig6(b, experiments.SameSizeSameDist) }
func BenchmarkFig6_SameSizeDiffDist(b *testing.B)  { benchFig6(b, experiments.SameSizeDiffDist) }
func BenchmarkFig6_DiffSizeSameDist(b *testing.B)  { benchFig6(b, experiments.DiffSizeSameDist) }
func BenchmarkFig6_SameSizeNoisyLbl(b *testing.B)  { benchFig6(b, experiments.SameSizeNoisyLbl) }
func BenchmarkFig6_SameSizeNoisyFeat(b *testing.B) { benchFig6(b, experiments.SameSizeNoisyFeat) }

// BenchmarkFig6NoiseSweep regenerates the noise sweeps behind Figs. 6(d)
// and 6(e).
func BenchmarkFig6NoiseSweep(b *testing.B) {
	cfg := experiments.FigConfig{N: 5, Models: []experiments.ModelKind{experiments.MLP}, Scale: benchScale(), Seed: 1}
	for i := 0; i < b.N; i++ {
		experiments.Fig6Noise(cfg, []float64{0, 0.2})
	}
}

// BenchmarkLemmaOne validates the Lemma 1 closed form on FL linear
// regression (E-L1).
func BenchmarkLemmaOne(b *testing.B) {
	cfg := experiments.DefaultLinRegProblem(1)
	for i := 0; i < b.N; i++ {
		experiments.LemmaOne(cfg, 3)
	}
}

// BenchmarkTheoremThree validates the truncation bound (E-T3).
func BenchmarkTheoremThree(b *testing.B) {
	cfg := experiments.DefaultLinRegProblem(2)
	for i := 0; i < b.N; i++ {
		experiments.TheoremThree(cfg, 2)
	}
}

// BenchmarkFig7GammaSweep regenerates the error-vs-γ sweep (E-F7).
func BenchmarkFig7GammaSweep(b *testing.B) {
	cfg := experiments.FigConfig{N: 6, Models: []experiments.ModelKind{experiments.MLP}, Scale: benchScale(), Seed: 1}
	for i := 0; i < b.N; i++ {
		experiments.Fig7(cfg, []int{8, 16, 32})
	}
}

// BenchmarkFig8Pareto regenerates the Pareto trade-off curves (E-F8).
func BenchmarkFig8Pareto(b *testing.B) {
	cfg := experiments.FigConfig{Models: []experiments.ModelKind{experiments.MLP}, Scale: benchScale(), Seed: 1}
	for i := 0; i < b.N; i++ {
		experiments.Fig8(cfg, []int{3, 6}, []int{5, 10})
	}
}

// BenchmarkFig9Scalability regenerates the large-federation run with
// property-proxy errors (E-F9).
func BenchmarkFig9Scalability(b *testing.B) {
	cfg := experiments.FigConfig{Models: []experiments.ModelKind{experiments.LogReg}, Scale: benchScale(), Seed: 1}
	for i := 0; i < b.N; i++ {
		experiments.Fig9(cfg, []int{20, 40})
	}
}

// BenchmarkFig10Variance regenerates the MC-vs-CC variance comparison
// (E-F10).
func BenchmarkFig10Variance(b *testing.B) {
	cfg := experiments.FigConfig{Models: []experiments.ModelKind{experiments.LogReg}, Scale: benchScale(), Seed: 1}
	for i := 0; i < b.N; i++ {
		experiments.Fig10(cfg, []int{6}, []int{12, 48})
	}
}

// BenchmarkVarianceMCvsCC is the E-T2 micro-experiment: Alg. 1 under both
// schemes on the same problem.
func BenchmarkVarianceMCvsCC(b *testing.B) {
	sc := benchScale()
	p := experiments.NewFEMNISTProblem(6, experiments.LogReg, sc, 1)
	oracle := p.Oracle()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, scheme := range []shapley.Scheme{shapley.MC, shapley.CC} {
			ctx := shapley.NewContext(oracle, int64(i)).WithSpec(p.Spec)
			if _, err := shapley.NewStratified(scheme, 24).Values(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationIPSSRescale compares paper-faithful IPSS with the
// Horvitz-Thompson-rescaled variant at equal budget (E-AB1).
func BenchmarkAblationIPSSRescale(b *testing.B) {
	sc := benchScale()
	p := experiments.NewFEMNISTProblem(6, experiments.LogReg, sc, 1)
	exact, _ := experiments.ExactValues(p, 1)
	gamma := theory.GammaForN(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunAlgorithm(p, shapley.NewIPSS(gamma), exact, int64(i))
		experiments.RunAlgorithm(p, &shapley.IPSS{Gamma: gamma, RescaleSampledStratum: true}, exact, int64(i))
	}
}

// BenchmarkAblationBalancedP compares balanced vs uniform sampling of the
// k*+1 stratum (E-AB2, constraint (3) of Alg. 3).
func BenchmarkAblationBalancedP(b *testing.B) {
	sc := benchScale()
	p := experiments.NewFEMNISTProblem(6, experiments.LogReg, sc, 1)
	exact, _ := experiments.ExactValues(p, 1)
	gamma := theory.GammaForN(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunAlgorithm(p, shapley.NewIPSS(gamma), exact, int64(i))
		experiments.RunAlgorithm(p, &shapley.IPSS{Gamma: gamma, UnbalancedP: true}, exact, int64(i))
	}
}

// BenchmarkFig3MarginalCurve regenerates the Fig. 3 observation (average
// marginal utility per stratum).
func BenchmarkFig3MarginalCurve(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		p := experiments.NewFEMNISTProblem(6, experiments.LogReg, sc, int64(i))
		experiments.MarginalCurve(p, 1)
	}
}

// BenchmarkSummary runs the Sec. V-E findings generator end to end.
func BenchmarkSummary(b *testing.B) {
	sc := benchScale()
	problems := []*experiments.Problem{
		experiments.NewFEMNISTProblem(3, experiments.LogReg, sc, 1),
		experiments.NewFEMNISTProblem(4, experiments.LogReg, sc, 2),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunSummary(problems, int64(i))
	}
}

// BenchmarkAblationForcePairs compares Alg. 1 MC with and without forced
// pair evaluation at equal budget.
func BenchmarkAblationForcePairs(b *testing.B) {
	sc := benchScale()
	p := experiments.NewFEMNISTProblem(6, experiments.LogReg, sc, 1)
	exact, _ := experiments.ExactValues(p, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunAlgorithm(p, &shapley.Stratified{Scheme: shapley.MC, TotalRounds: 10}, exact, int64(i))
		experiments.RunAlgorithm(p, &shapley.Stratified{Scheme: shapley.MC, TotalRounds: 10, ForcePairs: true}, exact, int64(i))
	}
}

// BenchmarkExtensionVertical values feature providers in the vertical-FL
// extension.
func BenchmarkExtensionVertical(b *testing.B) {
	pool := SyntheticImages(240, 7)
	train, test := SplitTrainTest(pool, 0.75, 8)
	blocks := EqualFeatureBlocks(train.Dim(), 4)
	fed, err := NewVerticalFederation(train, test, blocks, WithVerticalEpochs(2))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fed.Value(IPSS(8), int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionNeyman compares the variance-aware Neyman allocation
// against the paper's even split and IPSS at equal budget.
func BenchmarkExtensionNeyman(b *testing.B) {
	sc := benchScale()
	p := experiments.NewFEMNISTProblem(8, experiments.LogReg, sc, 1)
	exact, _ := experiments.ExactValues(p, 1)
	gamma := 40
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunAlgorithm(p, shapley.NewStratifiedNeyman(gamma), exact, int64(i))
		experiments.RunAlgorithm(p, shapley.NewStratified(shapley.MC, gamma), exact, int64(i))
		experiments.RunAlgorithm(p, shapley.NewIPSS(gamma), exact, int64(i))
	}
}

// BenchmarkExtensionBanzhaf measures the Banzhaf semivalue extension.
func BenchmarkExtensionBanzhaf(b *testing.B) {
	sc := benchScale()
	p := experiments.NewFEMNISTProblem(6, experiments.LogReg, sc, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunAlgorithm(p, shapley.ExactBanzhaf{}, nil, int64(i))
	}
}

// BenchmarkBaselineLeaveOneOut measures the O(n) LOO reference point.
func BenchmarkBaselineLeaveOneOut(b *testing.B) {
	sc := benchScale()
	p := experiments.NewFEMNISTProblem(8, experiments.LogReg, sc, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunAlgorithm(p, shapley.LeaveOneOut{}, nil, int64(i))
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkUtilityEval measures τ, the per-coalition train+evaluate cost
// that dominates every algorithm's runtime.
func BenchmarkUtilityEval(b *testing.B) {
	sc := benchScale()
	p := experiments.NewFEMNISTProblem(6, experiments.MLP, sc, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oracle := p.Oracle()
		oracle.U(toCoalition([]int{0, 2, 4}))
	}
}

// BenchmarkUtilityEvalInstrumented is BenchmarkUtilityEval with the
// daemon telemetry valserve jobs install on the oracle — the progress hook
// and the eval-timing wrapper; cache hits are timed above the oracle, by
// the job's view. The acceptance bound for the observability layer is
// < 2% overhead against the uninstrumented variant; compare the two ns/op
// directly.
func BenchmarkUtilityEvalInstrumented(b *testing.B) {
	sc := benchScale()
	p := experiments.NewFEMNISTProblem(6, experiments.MLP, sc, 1)
	var evals atomic.Int64
	var seconds uint64 // float64 bits; same pattern as the histogram sum
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oracle := p.Oracle()
		oracle.OnFresh(func(combin.Coalition, float64, int) { evals.Add(1) })
		oracle.WrapEval(func(inner utility.EvalFunc) utility.EvalFunc {
			return func(s combin.Coalition) float64 {
				start := time.Now()
				u := inner(s)
				atomic.AddUint64(&seconds, math.Float64bits(time.Since(start).Seconds()))
				return u
			}
		})
		oracle.U(toCoalition([]int{0, 2, 4}))
	}
}

// BenchmarkExactShapley measures the full 2ⁿ ground-truth computation.
func BenchmarkExactShapley(b *testing.B) {
	sc := benchScale()
	p := experiments.NewFEMNISTProblem(6, experiments.LogReg, sc, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.ExactValues(p, int64(i))
	}
}

// BenchmarkIPSS measures one IPSS run at the Table III budget.
func BenchmarkIPSS(b *testing.B) {
	sc := benchScale()
	p := experiments.NewFEMNISTProblem(10, experiments.LogReg, sc, 1)
	gamma := theory.GammaForN(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunAlgorithm(p, shapley.NewIPSS(gamma), nil, int64(i))
	}
}

// BenchmarkFederationValue measures the public-API path end to end — the
// acceptance benchmark of the evaluation pipeline: IPSS on an MLP
// federation, serial against a full worker pool. The workers=N/workers=1
// wall-clock ratio is the pipeline's speedup; values and evaluation counts
// are bit-identical across the variants (the parallel determinism suite
// asserts this).
func BenchmarkFederationValue(b *testing.B) {
	clients, test := FederatedWriters(10, 40, 120, 7)
	fed, err := NewFederation(
		WithDatasets(clients...),
		WithTestSet(test),
		WithMLP(12),
		WithFLRounds(2),
	)
	if err != nil {
		b.Fatal(err)
	}
	gamma := fed.RecommendedGamma() // 32 at n=10 (Table III)
	counts := []int{1, 4, runtime.NumCPU()}
	seen := map[int]bool{}
	dedup := counts[:0]
	for _, w := range counts {
		if !seen[w] {
			seen[w] = true
			dedup = append(dedup, w)
		}
	}
	for _, workers := range dedup {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fed.ValueParallel(IPSS(gamma), int64(i), workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExtensionSybilSplit runs the sybil-splitting robustness study.
func BenchmarkExtensionSybilSplit(b *testing.B) {
	sc := benchScale()
	p := experiments.NewFEMNISTProblem(4, experiments.LogReg, sc, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SybilSplit(p, 1, 2,
			func(g int) shapley.Valuer { return shapley.NewIPSS(g) }, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
