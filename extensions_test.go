package fedshap

import (
	"context"
	"errors"
	"math"
	"testing"

	"fedshap/internal/combin"
	"fedshap/internal/dataset"
	"fedshap/internal/model"
	"fedshap/internal/shapley"
	"fedshap/internal/utility"
)

func TestValueParallelMatchesSequential(t *testing.T) {
	fed := tinyFederation(t)
	seq, err := fed.Value(IPSS(6), 5)
	if err != nil {
		t.Fatal(err)
	}
	par, err := fed.ValueParallel(IPSS(6), 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Values {
		if math.Abs(seq.Values[i]-par.Values[i]) > 1e-12 {
			t.Fatalf("parallel deviates at client %d: %v vs %v", i, par.Values[i], seq.Values[i])
		}
	}
}

func TestValueParallelExact(t *testing.T) {
	fed := tinyFederation(t)
	seq, err := fed.ExactValues(1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := fed.ValueParallel(ExactShapley(), 1, 0) // 0 = GOMAXPROCS
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Values {
		if math.Abs(seq.Values[i]-par.Values[i]) > 1e-12 {
			t.Fatalf("parallel exact deviates at client %d", i)
		}
	}
	if par.Evaluations != 8 {
		t.Errorf("parallel exact evals = %d, want 8", par.Evaluations)
	}
}

func TestValueParallelNonPrefetchable(t *testing.T) {
	fed := tinyFederation(t)
	// TMC's plan covers only the certain prefix of its evaluation
	// sequence (truncation is utility-dependent); ValueParallel must
	// evaluate the remainder lazily and still agree with serial.
	rep, err := fed.ValueParallel(TMC(6), 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Values) != 3 {
		t.Errorf("values = %v", rep.Values)
	}
}

func TestUtilitiesBatchMatchesUtility(t *testing.T) {
	fed := tinyFederation(t)
	coalitions := [][]int{{0}, {1, 2}, {0, 1, 2}, {0}} // incl. a duplicate
	got, err := fed.Utilities(coalitions, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(coalitions) {
		t.Fatalf("got %d utilities, want %d", len(got), len(coalitions))
	}
	for i, c := range coalitions {
		if want := mustUtility(t, fed, c); got[i] != want {
			t.Errorf("utilities[%d] = %v, want %v", i, got[i], want)
		}
	}
}

// UtilitiesCtx is the cancellable Utilities: a live context gives the
// same utilities, a cancelled one trains nothing and returns its error.
func TestUtilitiesCtxCancellation(t *testing.T) {
	fed := tinyFederation(t)
	coalitions := [][]int{{0}, {1, 2}}
	want, err := fed.Utilities(coalitions, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fed.UtilitiesCtx(context.Background(), coalitions, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("UtilitiesCtx[%d] = %v, Utilities gives %v", i, got[i], want[i])
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got, err := fed.UtilitiesCtx(ctx, coalitions, 2); !errors.Is(err, context.Canceled) || got != nil {
		t.Errorf("UtilitiesCtx(cancelled) = %v, %v; want nil, context.Canceled", got, err)
	}
}

func TestFedProxFederation(t *testing.T) {
	clients, test := FederatedWriters(3, 30, 90, 27)
	fed, err := NewFederation(
		WithDatasets(clients...),
		WithTestSet(test),
		WithLogReg(),
		WithFedProx(0.5),
		WithFLRounds(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fed.Value(IPSS(5), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Values) != 3 {
		t.Errorf("values = %v", rep.Values)
	}
	// FedProx must actually change the game relative to FedAvg.
	fedAvg, err := NewFederation(
		WithDatasets(clients...),
		WithTestSet(test),
		WithLogReg(),
		WithFLRounds(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	uProx := mustUtility(t, fed, []int{0, 1})
	uAvg := mustUtility(t, fedAvg, []int{0, 1})
	if uProx == uAvg {
		t.Logf("FedProx and FedAvg coincide on this coalition (possible but unusual): %v", uProx)
	}
	if _, err := NewFederation(
		WithDatasets(clients...), WithTestSet(test), WithFedProx(-1),
	); err == nil {
		t.Errorf("negative mu accepted")
	}
}

func TestBanzhafValuers(t *testing.T) {
	fed := tinyFederation(t)
	exact, err := fed.Value(Banzhaf(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Evaluations != 8 {
		t.Errorf("Banzhaf exact evals = %d, want 8", exact.Evaluations)
	}
	mc, err := fed.Value(BanzhafMC(6), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(mc.Values) != 3 {
		t.Errorf("values = %v", mc.Values)
	}
}

func TestPlanBudget(t *testing.T) {
	// Loose target → small budget; tight target → larger budget.
	loose := PlanBudget(10, 500, 8, 0.1)
	tight := PlanBudget(10, 500, 8, 0.0001)
	if loose <= 0 || tight <= 0 {
		t.Fatalf("budgets: loose=%d tight=%d", loose, tight)
	}
	if tight < loose {
		t.Errorf("tighter target got smaller budget: %d < %d", tight, loose)
	}
	if tight > 1024 {
		t.Errorf("budget %d exceeds 2^10", tight)
	}
}

func TestStratifiedSchemesViaAPI(t *testing.T) {
	fed := tinyFederation(t)
	for _, scheme := range []Scheme{MCScheme, CCScheme} {
		rep, err := fed.Value(Stratified(scheme, 8), 3)
		if err != nil {
			t.Fatalf("scheme %v: %v", scheme, err)
		}
		if len(rep.Values) != 3 {
			t.Errorf("scheme %v: values = %v", scheme, rep.Values)
		}
	}
}

func TestDeepMLPFederation(t *testing.T) {
	clients, test := FederatedWriters(3, 25, 60, 61)
	fed, err := NewFederation(
		WithDatasets(clients...),
		WithTestSet(test),
		WithDeepMLP(10, 8),
		WithFLRounds(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fed.Value(IPSS(5), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Values) != 3 {
		t.Errorf("values = %v", rep.Values)
	}
	// Gradient baselines work on DeepMLP too (it is parametric).
	if _, err := fed.Value(OR(), 2); err != nil {
		t.Errorf("OR on DeepMLP: %v", err)
	}
	// Validation.
	if _, err := NewFederation(
		WithDatasets(clients...), WithTestSet(test), WithDeepMLP(),
	); err == nil {
		t.Errorf("empty hidden list accepted")
	}
	if _, err := NewFederation(
		WithDatasets(clients...), WithTestSet(test), WithDeepMLP(0),
	); err == nil {
		t.Errorf("zero hidden width accepted")
	}
}

func TestVerticalFederationAPI(t *testing.T) {
	pool := SyntheticImages(300, 71)
	train, test := SplitTrainTest(pool, 0.75, 72)
	blocks := EqualFeatureBlocks(train.Dim(), 4)
	fed, err := NewVerticalFederation(train, test, blocks,
		WithVerticalEpochs(2), WithVerticalLR(0.1), WithVerticalSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if fed.N() != 4 {
		t.Fatalf("N = %d", fed.N())
	}
	rep, err := fed.Value(IPSS(8), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Values) != 4 || rep.Evaluations > 8 {
		t.Errorf("values=%v evals=%d", rep.Values, rep.Evaluations)
	}
	if rep.Names[0] != "provider-0" {
		t.Errorf("names = %v", rep.Names)
	}
	// Overlapping blocks rejected at construction.
	bad := []FeatureBlock{{Name: "a", Start: 0, Width: 10}, {Name: "b", Start: 5, Width: 10}}
	if _, err := NewVerticalFederation(train, test, bad); err == nil {
		t.Errorf("overlapping blocks accepted")
	}
}

func TestVerticalExactEfficiency(t *testing.T) {
	pool := SyntheticImages(200, 73)
	train, test := SplitTrainTest(pool, 0.75, 74)
	blocks := EqualFeatureBlocks(train.Dim(), 3)
	fed, err := NewVerticalFederation(train, test, blocks, WithVerticalEpochs(2))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fed.Value(ExactShapley(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Efficiency holds for the feature game too (Σφ = U(N) − U(∅)); we
	// can't query the oracle directly here, so check finite + count.
	if rep.Evaluations != 8 {
		t.Errorf("exact evals = %d, want 8", rep.Evaluations)
	}
	for i, v := range rep.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("provider %d value %v", i, v)
		}
	}
}

func TestStratifiedNeymanAPI(t *testing.T) {
	fed := tinyFederation(t)
	rep, err := fed.Value(StratifiedNeyman(12), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Values) != 3 {
		t.Errorf("values = %v", rep.Values)
	}
	for _, v := range rep.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("bad value %v", v)
		}
	}
}

func TestDatasetPersistencePublicAPI(t *testing.T) {
	d := SyntheticImages(25, 81)
	dir := t.TempDir()

	gobPath := dir + "/d.gob"
	if err := SaveDataset(d, gobPath); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDataset(gobPath)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != d.Len() {
		t.Errorf("gob round trip len %d", back.Len())
	}
	if _, err := LoadDataset(dir + "/missing.gob"); err == nil {
		t.Errorf("missing gob accepted")
	}
	if _, err := LoadDatasetCSV(dir+"/missing.csv", 0); err == nil {
		t.Errorf("missing csv accepted")
	}
}

func TestValueRepeated(t *testing.T) {
	fed := tinyFederation(t)
	rep, err := fed.ValueRepeated(TMC(6), 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 8 || len(rep.Mean) != 3 {
		t.Fatalf("shape: runs=%d mean=%v", rep.Runs, rep.Mean)
	}
	for i := range rep.Mean {
		if math.IsNaN(rep.Mean[i]) || rep.Std[i] < 0 || rep.CI95[i] < 0 {
			t.Errorf("client %d: mean=%v std=%v ci=%v", i, rep.Mean[i], rep.Std[i], rep.CI95[i])
		}
	}
	// Exact algorithm: zero spread.
	ex, err := fed.ValueRepeated(ExactShapley(), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range ex.Std {
		if s != 0 {
			t.Errorf("exact repeated std[%d] = %v, want 0", i, s)
		}
	}
	// Shared cache: exact repeated three times still costs 2^3 trainings.
	if ex.Evaluations != 8 {
		t.Errorf("evals = %d, want 8 (cache shared)", ex.Evaluations)
	}
	if _, err := fed.ValueRepeated(TMC(6), 1, 1); err == nil {
		t.Errorf("runs=1 accepted")
	}
}

func TestPerRoundValues(t *testing.T) {
	fed := tinyFederation(t)
	rounds, err := fed.PerRoundValues()
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 2 { // tinyFederation uses 2 FL rounds
		t.Fatalf("rounds = %d", len(rounds))
	}
	for r, v := range rounds {
		if len(v) != 3 {
			t.Fatalf("round %d has %d values", r, len(v))
		}
		for i, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Errorf("round %d client %d value %v", r, i, x)
			}
		}
	}
	// Tree models have no trace → error.
	pool, occ := CensusTabular(150, 3)
	clients := PartitionByGroup(pool, occ, 3)
	_, test := SplitTrainTest(pool, 0.7, 4)
	xfed, err := NewFederation(WithDatasets(clients...), WithTestSet(test), WithXGB(4, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xfed.PerRoundValues(); err == nil {
		t.Errorf("per-round values on XGB should fail")
	}
}

// countingPlanner is IPSS with its SamplePlan calls counted.
type countingPlanner struct {
	*shapley.IPSS
	plans int
}

func (c *countingPlanner) SamplePlan(n int, seed int64) []combin.Coalition {
	c.plans++
	return c.IPSS.SamplePlan(n, seed)
}

// workers == 1 is the serial path: no plan is replayed and no pool runs
// over it. Every other width plans exactly once, and the values agree bit
// for bit either way.
func TestValueParallelSerialWidthSkipsPlan(t *testing.T) {
	fed := tinyFederation(t)
	want, err := fed.Value(IPSS(6), 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ workers, plans int }{{1, 0}, {2, 1}, {0, 1}} {
		alg := &countingPlanner{IPSS: shapley.NewIPSS(6)}
		got, err := fed.ValueParallel(alg, 5, tc.workers)
		if err != nil {
			t.Fatal(err)
		}
		if alg.plans != tc.plans {
			t.Errorf("workers=%d: SamplePlan called %d times, want %d", tc.workers, alg.plans, tc.plans)
		}
		for i := range want.Values {
			if got.Values[i] != want.Values[i] {
				t.Errorf("workers=%d: client %d value %v, want %v", tc.workers, i, got.Values[i], want.Values[i])
			}
		}
		if got.Evaluations != want.Evaluations {
			t.Errorf("workers=%d: %d evaluations, want %d", tc.workers, got.Evaluations, want.Evaluations)
		}
	}
}

// A metric that diverges fails every public entry point with the oracle's
// typed error instead of reporting NaN values or panicking.
func TestValueNonFiniteUtilityFails(t *testing.T) {
	fed := tinyFederation(t)
	fed.metric = func(model.Model, *dataset.Dataset) float64 { return math.Inf(1) }
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"Value", func() error { _, err := fed.Value(IPSS(6), 5); return err }},
		{"ValueParallel/1", func() error { _, err := fed.ValueParallel(IPSS(6), 5, 1); return err }},
		{"ValueParallel/2", func() error { _, err := fed.ValueParallel(IPSS(6), 5, 2); return err }},
		{"ValueRepeated", func() error { _, err := fed.ValueRepeated(IPSS(6), 2, 5); return err }},
		{"ValueByTestSlice", func() error {
			_, err := fed.ValueByTestSlice(IPSS(6), [][]int{{0, 1}, {2, 3}}, 5)
			return err
		}},
		{"Utility", func() error { _, err := fed.Utility([]int{0, 1}); return err }},
		{"Utilities", func() error { _, err := fed.Utilities([][]int{{0}, {1, 2}}, 2); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panicked: %v", r)
					}
				}()
				err = tc.call()
			}()
			var nf *utility.NonFiniteError
			if !errors.As(err, &nf) {
				t.Fatalf("err = %v, want *utility.NonFiniteError", err)
			}
		})
	}
}
