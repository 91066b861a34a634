package shapley

import (
	"context"
	"errors"
	"math"
	"testing"

	"fedshap/internal/combin"
	"fedshap/internal/dataset"
	"fedshap/internal/fl"
	"fedshap/internal/metrics"
	"fedshap/internal/model"
	"fedshap/internal/utility"
)

// flSpec builds a small real federated valuation problem over FEMNIST-like
// writers with an MLP.
func flSpec(n int, seed int64) *utility.FLSpec {
	cfg := dataset.DefaultFEMNISTLike(n, 40, seed)
	cfg.Classes = 4
	clients, test := dataset.FEMNISTLike(cfg)
	return &utility.FLSpec{
		Factory: func(s int64) model.Model { return model.NewMLP(clients[0].Dim(), 8, 4, s) },
		Clients: clients,
		Test:    test,
		Config:  fl.Config{Rounds: 2, LocalEpochs: 1, LR: 0.05, Seed: 7, WeightBySize: true},
		Metric:  model.Accuracy,
	}
}

func flContext(spec *utility.FLSpec, seed int64) *Context {
	return NewContext(utility.NewFLOracle(*spec), seed).WithSpec(spec)
}

func TestTMCConvergesOnTableGame(t *testing.T) {
	n := 6
	exact := mustValues(t, ExactMC{}, NewContext(steepMonotoneGame(n, 3), 1))
	// Fresh oracle: budget accounting counts this algorithm's evals only.
	phi := mustValues(t, &TMC{Gamma: 60, MaxPermutations: 400}, NewContext(steepMonotoneGame(n, 3), 4))
	if err := metrics.L2RelativeError(phi, exact); err > 0.35 {
		t.Errorf("TMC error %v, want < 0.35", err)
	}
}

func TestTMCRespectsBudgetApproximately(t *testing.T) {
	n := 8
	o := monotoneGame(n, 5)
	ctx := NewContext(o, 6)
	mustValues(t, NewTMC(30), ctx)
	// TMC finishes its current permutation after the budget trips, so the
	// overshoot is bounded by one permutation's n evaluations.
	if got := ctx.Oracle.Evals(); got > 30+n {
		t.Errorf("TMC used %d evals for budget 30", got)
	}
}

func TestTMCTruncates(t *testing.T) {
	// A game where the first player alone reaches the full utility: TMC
	// should truncate most walks and remain cheap.
	n := 8
	table := make(map[combin.Coalition]float64)
	combin.AllSubsets(n, func(s combin.Coalition) {
		if s.Size() > 0 {
			table[s] = 0.9
		} else {
			table[s] = 0.1
		}
	})
	o := utility.TableOracle(n, table)
	ctx := NewContext(o, 7)
	phi := mustValues(t, &TMC{Gamma: 40, MaxPermutations: 50}, ctx)
	// Values must sum to roughly U(N) - U(∅) = 0.8 (efficiency in
	// expectation; truncation is exact here since marginals are truly 0).
	if math.Abs(phi.Sum()-0.8) > 0.1 {
		t.Errorf("TMC sum = %v, want ≈ 0.8", phi.Sum())
	}
}

func TestGTBRecoversOnTableGame(t *testing.T) {
	n := 5
	o := steepMonotoneGame(n, 9)
	exact := mustValues(t, ExactMC{}, NewContext(steepMonotoneGame(n, 9), 1))
	phi := mustValues(t, NewGTB(400), NewContext(o, 10))
	if err := metrics.L2RelativeError(phi, exact); err > 0.35 {
		t.Errorf("GTB error %v, want < 0.35", err)
	}
	// Efficiency is enforced by construction.
	want := o.U(combin.FullCoalition(n)) - o.U(combin.Empty)
	if math.Abs(phi.Sum()-want) > 1e-9 {
		t.Errorf("GTB sum %v, want %v", phi.Sum(), want)
	}
}

func TestGTBSingleClient(t *testing.T) {
	o := utility.TableOracle(1, map[combin.Coalition]float64{
		combin.Empty:           0.2,
		combin.NewCoalition(0): 0.9,
	})
	phi := mustValues(t, NewGTB(5), NewContext(o, 1))
	if math.Abs(phi[0]-0.7) > 1e-12 {
		t.Errorf("GTB single client %v, want 0.7", phi[0])
	}
}

func TestCCShapleyConvergesOnTableGame(t *testing.T) {
	n := 6
	o := steepMonotoneGame(n, 11)
	exact := mustValues(t, ExactMC{}, NewContext(steepMonotoneGame(n, 11), 1))
	phi := mustValues(t, NewCCShapley(120), NewContext(o, 12))
	if err := metrics.L2RelativeError(phi, exact); err > 0.35 {
		t.Errorf("CC-Shapley error %v, want < 0.35", err)
	}
}

func TestCCShapleyComplementPairsSharedEval(t *testing.T) {
	// Each draw evaluates S and N\S: with budget γ the number of distinct
	// evals is ≤ γ+2.
	n := 7
	o := monotoneGame(n, 13)
	ctx := NewContext(o, 14)
	mustValues(t, NewCCShapley(20), ctx)
	if got := ctx.Oracle.Evals(); got > 22 {
		t.Errorf("CC-Shapley used %d evals for budget 20", got)
	}
}

func TestSamplingBaselinesNeedNoSpec(t *testing.T) {
	o := monotoneGame(4, 15)
	for _, alg := range []Valuer{NewTMC(10), NewGTB(10), NewCCShapley(10), NewIPSS(10), NewStratified(MC, 10)} {
		if _, err := alg.Values(NewContext(o, 1)); err != nil {
			t.Errorf("%s on table game: %v", alg.Name(), err)
		}
	}
}

func TestGradientBaselinesRequireSpec(t *testing.T) {
	o := monotoneGame(3, 17)
	for _, alg := range []Valuer{OR{}, &LambdaMR{}, GTGShapley{}, DIGFL{}} {
		_, err := alg.Values(NewContext(o, 1))
		if !errors.Is(err, ErrNeedsSpec) {
			t.Errorf("%s without spec: err = %v, want ErrNeedsSpec", alg.Name(), err)
		}
	}
}

func TestGradientBaselinesOnFLGame(t *testing.T) {
	spec := flSpec(4, 19)
	exactCtx := flContext(spec, 1)
	exact := mustValues(t, ExactMC{}, exactCtx)

	for _, alg := range []Valuer{OR{}, &LambdaMR{}, GTGShapley{}, DIGFL{}} {
		t.Run(alg.Name(), func(t *testing.T) {
			ctx := flContext(spec, 2)
			phi := mustValues(t, alg, ctx)
			if len(phi) != 4 {
				t.Fatalf("%s returned %d values", alg.Name(), len(phi))
			}
			// Gradient methods lack accuracy guarantees (the paper reports
			// OR errors of 2.5-3×), so assert only well-formedness here;
			// the experiment harness records their actual error.
			for i, v := range phi {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s client %d value %v", alg.Name(), i, v)
				}
			}
			t.Logf("%s: τ=%v against exact", alg.Name(), metrics.KendallTau(phi, exact))
		})
	}
}

func TestGradientBaselinesNotApplicableToXGB(t *testing.T) {
	d, occ := dataset.AdultLike(dataset.DefaultAdultLike(200, 21))
	clients := dataset.PartitionByKey(d, occ, 3)
	spec := &utility.FLSpec{
		Factory: func(s int64) model.Model { return model.NewXGB(2, model.DefaultXGBConfig(), s) },
		Clients: clients,
		Test:    d,
		Config:  fl.DefaultConfig(7),
		Metric:  model.Accuracy,
	}
	for _, alg := range []Valuer{OR{}, &LambdaMR{}, GTGShapley{}} {
		_, err := alg.Values(flContext(spec, 1))
		if !errors.Is(err, ErrNotApplicable) {
			t.Errorf("%s on XGB: err = %v, want ErrNotApplicable", alg.Name(), err)
		}
	}
	// DIG-FL falls back to leave-one-out retraining and works (Table V).
	phi, err := (DIGFL{}).Values(flContext(spec, 1))
	if err != nil {
		t.Fatalf("DIG-FL on XGB: %v", err)
	}
	if len(phi) != 3 {
		t.Errorf("DIG-FL returned %d values", len(phi))
	}
}

func TestORReconstructionAnchoredAtFullCoalition(t *testing.T) {
	// OR's reconstruction of the grand coalition equals the actual trained
	// model, so U-recon(N) must equal the oracle's U(N).
	spec := flSpec(3, 23)
	trace, err := trainTrace(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := reconGame(&Context{Spec: spec}, trace, -1).U(combin.FullCoalition(3))
	oracle := utility.NewFLOracle(*spec)
	want := oracle.U(combin.FullCoalition(3))
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("OR reconstruction of N: %v, oracle: %v", got, want)
	}
}

func TestDIGFLParametricPath(t *testing.T) {
	spec := flSpec(3, 25)
	phi := mustValues(t, DIGFL{}, flContext(spec, 1))
	if len(phi) != 3 {
		t.Fatalf("len = %d", len(phi))
	}
}

func TestLambdaMRDecayWeights(t *testing.T) {
	// λ = 1 and λ = 0.5 must both produce finite values.
	spec := flSpec(3, 27)
	for _, l := range []float64{1, 0.5} {
		phi := mustValues(t, &LambdaMR{Lambda: l}, flContext(spec, 1))
		for i, v := range phi {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("λ=%v client %d value %v", l, i, v)
			}
		}
	}
}

func TestValuerNames(t *testing.T) {
	cases := map[Valuer]string{
		ExactMC{}:       "MC-Shapley",
		ExactCC{}:       "CC-exact",
		ExactPerm{}:     "Perm-Shapley",
		OR{}:            "OR",
		&LambdaMR{}:     "λ-MR",
		GTGShapley{}:    "GTG-Shapley",
		DIGFL{}:         "DIG-FL",
		NewTMC(5):       "Extended-TMC(γ=5)",
		NewGTB(5):       "Extended-GTB(γ=5)",
		NewCCShapley(5): "CC-Shapley(γ=5)",
	}
	for v, want := range cases {
		if got := v.Name(); got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
	}
}

func TestTMCCustomTolerance(t *testing.T) {
	// A very large tolerance truncates immediately after U(N), U(∅):
	// every marginal beyond the first client is zeroed.
	n := 5
	o := steepMonotoneGame(n, 71)
	alg := &TMC{Gamma: 30, Tolerance: 10, MaxPermutations: 20}
	phi := mustValues(t, alg, NewContext(o, 1))
	// Values are finite and the walk still assigns the first marginal.
	nonzero := 0
	for _, v := range phi {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Errorf("full truncation should still credit first-position clients")
	}
}

// meterMetric wraps spec's metric to count its calls and, when hook is
// non-nil, to pass each utility through hook with its 1-based call number.
func meterMetric(spec *utility.FLSpec, hook func(call int, u float64) float64) *int {
	metric, calls := spec.Metric, 0
	spec.Metric = func(m model.Model, d *dataset.Dataset) float64 {
		calls++
		if hook == nil {
			return metric(m, d)
		}
		return hook(calls, metric(m, d))
	}
	return &calls
}

// TestGTGBetweenRoundTruncation: when no round moves the utility (LR = 0
// leaves every update zero), GTG truncates every round, so all values are
// zero and the metric runs once for the initial model plus once for U(N)
// per round.
func TestGTGBetweenRoundTruncation(t *testing.T) {
	spec := flSpec(3, 73)
	spec.Config.LR = 0
	calls := meterMetric(spec, nil)
	phi := mustValues(t, GTGShapley{}, flContext(spec, 1))
	for i, v := range phi {
		if v != 0 {
			t.Errorf("client %d: %v, want 0 under total between-round truncation", i, v)
		}
	}
	if want := 1 + spec.Config.Rounds; *calls != want {
		t.Errorf("metric called %d times, want %d", *calls, want)
	}
}

// TestGradientBaselinesEvaluateThroughAnOracle: every reconstructed
// coalition goes through a utility.Oracle, so a non-finite utility and a
// cancelled context end the run at the call that caused them, and the
// metric runs once per coalition — the counts valserve admits jobs by.
func TestGradientBaselinesEvaluateThroughAnOracle(t *testing.T) {
	const n = 6
	rounds := flSpec(n, 29).Config.Rounds
	for _, tc := range []struct {
		alg   Valuer
		calls int // exact metric calls, or the bound when exact is false
		exact bool
	}{
		{OR{}, 1 << n, true},
		{&LambdaMR{}, rounds << n, true},
		{GTGShapley{}, rounds * max(8, 2*n) * n, false},
		{DIGFL{}, rounds * (n + 1), true},
	} {
		t.Run(tc.alg.Name(), func(t *testing.T) {
			countingCtx := func(hook func(call int, u float64) float64) (*Context, *int) {
				spec := flSpec(n, 29)
				calls := meterMetric(spec, hook)
				return flContext(spec, 2), calls
			}

			c, _ := countingCtx(func(call int, u float64) float64 {
				if call == 3 {
					return math.NaN()
				}
				return u
			})
			values, err := Run(c, tc.alg)
			var nf *utility.NonFiniteError
			if !errors.As(err, &nf) || values != nil {
				t.Errorf("NaN on call 3: values %v, err %v; want nil and *NonFiniteError", values, err)
			}

			cctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			c, calls := countingCtx(func(call int, u float64) float64 {
				if call == 3 {
					cancel()
				}
				return u
			})
			if values, err := Run(c.WithContext(cctx), tc.alg); !errors.Is(err, context.Canceled) || values != nil || *calls != 3 {
				t.Errorf("cancelled on call 3: values %v, err %v after %d calls; want nil, context.Canceled after 3",
					values, err, *calls)
			}

			c, calls = countingCtx(nil)
			mustValues(t, tc.alg, c)
			if (tc.exact && *calls != tc.calls) || *calls > tc.calls {
				t.Errorf("%d metric calls, want %d (exact: %v)", *calls, tc.calls, tc.exact)
			}
		})
	}
}

func TestStratifiedBadRoundsPanics(t *testing.T) {
	o := monotoneGame(3, 75)
	alg := &Stratified{Scheme: MC, RoundsPerStratum: []int{1, 2}} // wrong length
	defer func() {
		if recover() == nil {
			t.Errorf("mismatched RoundsPerStratum should panic")
		}
	}()
	_, _ = alg.Values(NewContext(o, 1))
}

func TestStratifiedZeroBudget(t *testing.T) {
	o := monotoneGame(3, 77)
	phi := mustValues(t, NewStratified(MC, 0), NewContext(o, 1))
	for i, v := range phi {
		if v != 0 {
			t.Errorf("client %d: %v, want 0 with no budget", i, v)
		}
	}
}
