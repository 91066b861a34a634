package fedshap

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"fedshap/internal/shapley"
)

// The parallel-vs-serial determinism suite: for every valuation algorithm
// this package exports, ValueParallel must return bit-identical values and
// an identical evaluation count to the serial Value, at every worker
// count, across the parametric, logistic and tree model families. This is
// the contract the whole evaluation pipeline (plan → parallel evaluate →
// deterministic reduce) is built on.

// determinismValuers enumerates the full Valuer surface of valuers.go at a
// small budget. PermShapley is feasible because the suite runs at n=4.
func determinismValuers() map[string]Valuer {
	const gamma = 6
	return map[string]Valuer{
		"ipss":              IPSS(gamma),
		"ipss-rescaled":     IPSSRescaled(gamma),
		"exact-mc":          ExactShapley(),
		"exact-cc":          ExactShapleyCC(),
		"exact-perm":        PermShapley(),
		"stratified-mc":     Stratified(MCScheme, gamma),
		"stratified-cc":     Stratified(CCScheme, gamma),
		"stratified-neyman": StratifiedNeyman(gamma),
		"kgreedy":           KGreedy(2),
		"tmc":               TMC(gamma),
		"gtb":               GTB(gamma),
		"ccshapley":         CCShapley(gamma),
		"digfl":             DIGFL(),
		"or":                OR(),
		"lambdamr":          LambdaMR(0.9),
		"gtg":               GTGShapley(),
		"leave-one-out":     LeaveOneOut(),
		"perm-sampling":     PermSampling(gamma),
		"banzhaf":           Banzhaf(),
		"banzhaf-mc":        BanzhafMC(gamma),
	}
}

func determinismFederation(t *testing.T, model Option) *Federation {
	t.Helper()
	clients, test := FederatedWriters(4, 16, 48, 11)
	fed, err := NewFederation(
		WithDatasets(clients...),
		WithTestSet(test),
		model,
		WithFLRounds(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	return fed
}

func TestParallelDeterminismAllValuers(t *testing.T) {
	models := map[string]Option{
		"mlp":    WithMLP(8),
		"logreg": WithLogReg(),
		"xgb":    WithXGB(3, 2),
	}
	if testing.Short() {
		models = map[string]Option{"logreg": WithLogReg()}
	}
	workerCounts := []int{1, 4, runtime.NumCPU()}
	if runtime.NumCPU() == 4 {
		workerCounts = workerCounts[:2]
	}
	for mname, model := range models {
		model := model
		t.Run(mname, func(t *testing.T) {
			fed := determinismFederation(t, model)
			for aname, alg := range determinismValuers() {
				alg := alg
				t.Run(aname, func(t *testing.T) {
					const seed = 23
					serial, serr := fed.Value(alg, seed)
					for _, workers := range workerCounts {
						par, perr := fed.ValueParallel(alg, seed, workers)
						if serr != nil || perr != nil {
							// Gradient baselines are not applicable to tree
							// models; both paths must agree on the error.
							if !errors.Is(perr, shapley.ErrNotApplicable) || !errors.Is(serr, shapley.ErrNotApplicable) {
								t.Fatalf("workers=%d: serial err = %v, parallel err = %v", workers, serr, perr)
							}
							continue
						}
						if par.Evaluations != serial.Evaluations {
							t.Errorf("workers=%d: evaluations = %d, serial = %d",
								workers, par.Evaluations, serial.Evaluations)
						}
						for i := range serial.Values {
							if par.Values[i] != serial.Values[i] {
								t.Fatalf("workers=%d: value[%d] = %v, serial = %v (must be bit-identical)",
									workers, i, par.Values[i], serial.Values[i])
							}
						}
					}
				})
			}
		})
	}
}

// TestValueParallelCtxCancelledPrefetch regresses the context-threading
// fix: a cancelled valuation context must stop the prefetch pool, not just
// the sequential pass.
func TestValueParallelCtxCancelledPrefetch(t *testing.T) {
	fed := determinismFederation(t, WithLogReg())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := fed.ValueParallelCtx(ctx, ExactShapley(), 1, 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
