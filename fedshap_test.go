package fedshap

import (
	"math"
	"strings"
	"testing"
)

// tinyFederation builds a 3-writer federation with a fast logistic model.
func tinyFederation(t *testing.T) *Federation {
	t.Helper()
	clients, test := FederatedWriters(3, 30, 90, 7)
	fed, err := NewFederation(
		WithDatasets(clients...),
		WithTestSet(test),
		WithLogReg(),
		WithSeed(11),
		WithFLRounds(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	return fed
}

// mustUtility is fed.Utility(c), failing the test on an error.
func mustUtility(t *testing.T, fed *Federation, c []int) float64 {
	t.Helper()
	u, err := fed.Utility(c)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestFederationExactValue(t *testing.T) {
	fed := tinyFederation(t)
	rep, err := fed.ExactValues(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Values) != 3 {
		t.Fatalf("values = %v", rep.Values)
	}
	if rep.Evaluations != 8 {
		t.Errorf("exact used %d evaluations, want 8", rep.Evaluations)
	}
	// Efficiency: Σφ = U(N) − U(∅).
	want := mustUtility(t, fed, []int{0, 1, 2}) - mustUtility(t, fed, nil)
	if math.Abs(rep.Values.Sum()-want) > 1e-9 {
		t.Errorf("Σφ = %v, want %v", rep.Values.Sum(), want)
	}
}

func TestFederationIPSS(t *testing.T) {
	fed := tinyFederation(t)
	gamma := fed.RecommendedGamma()
	if gamma != 5 {
		t.Errorf("RecommendedGamma = %d, want 5 (Table III)", gamma)
	}
	rep, err := fed.Value(IPSS(gamma), 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Evaluations > gamma {
		t.Errorf("IPSS used %d > γ=%d evaluations", rep.Evaluations, gamma)
	}
	if rep.Algorithm != "IPSS(γ=5)" {
		t.Errorf("Algorithm = %q", rep.Algorithm)
	}
	if len(rep.Names) != 3 || rep.Names[0] != "client-0" {
		t.Errorf("Names = %v", rep.Names)
	}
}

func TestFederationAllValuersRun(t *testing.T) {
	fed := tinyFederation(t)
	valuers := []Valuer{
		IPSS(5), IPSSRescaled(5), ExactShapley(), ExactShapleyCC(), PermShapley(),
		Stratified(MCScheme, 6), Stratified(CCScheme, 6), StratifiedNeyman(8),
		KGreedy(2), TMC(6), GTB(6), CCShapley(6), DIGFL(), OR(), LambdaMR(1),
		GTGShapley(), LeaveOneOut(), PermSampling(8), Banzhaf(), BanzhafMC(6),
	}
	for _, v := range valuers {
		rep, err := fed.Value(v, 3)
		if err != nil {
			t.Errorf("%s: %v", v.Name(), err)
			continue
		}
		if len(rep.Values) != 3 {
			t.Errorf("%s: %d values", v.Name(), len(rep.Values))
		}
		for i, x := range rep.Values {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Errorf("%s: client %d value %v", v.Name(), i, x)
			}
		}
	}
}

func TestFederationValidation(t *testing.T) {
	clients, test := FederatedWriters(2, 10, 20, 1)
	cases := []struct {
		name string
		opts []Option
		want string
	}{
		{"no clients", []Option{WithTestSet(test)}, "at least one client"},
		{"no test", []Option{WithDatasets(clients...)}, "test set"},
		{"bad mlp", []Option{WithDatasets(clients...), WithTestSet(test), WithMLP(0)}, "hidden"},
		{"bad rounds", []Option{WithDatasets(clients...), WithTestSet(test), WithFLRounds(0)}, "rounds"},
		{"bad lr", []Option{WithDatasets(clients...), WithTestSet(test), WithLearningRate(-1)}, "learning rate"},
	}
	for _, c := range cases {
		_, err := NewFederation(c.opts...)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want contains %q", c.name, err, c.want)
		}
	}
}

func TestFederationXGBRejectsGradientBaselines(t *testing.T) {
	pool, occ := CensusTabular(150, 3)
	clients := PartitionByGroup(pool, occ, 3)
	_, test := SplitTrainTest(pool, 0.7, 4)
	fed, err := NewFederation(
		WithDatasets(clients...),
		WithTestSet(test),
		WithXGB(5, 3),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fed.Value(OR(), 1); err == nil {
		t.Errorf("OR on XGB should fail with not-applicable")
	}
	if _, err := fed.Value(IPSS(5), 1); err != nil {
		t.Errorf("IPSS on XGB: %v", err)
	}
}

func TestNewDatasetValidation(t *testing.T) {
	if _, err := NewDataset("d", [][]float64{{1, 2}}, []int{0, 1}, 2); err == nil {
		t.Errorf("length mismatch not rejected")
	}
	if _, err := NewDataset("d", [][]float64{{1, 2}, {3}}, []int{0, 1}, 2); err == nil {
		t.Errorf("ragged rows not rejected")
	}
	if _, err := NewDataset("d", [][]float64{{1}}, []int{5}, 2); err == nil {
		t.Errorf("out-of-range label not rejected")
	}
	d, err := NewDataset("d", [][]float64{{1, 2}, {3, 4}}, []int{0, 1}, 2)
	if err != nil || d.Len() != 2 || d.Dim() != 2 {
		t.Errorf("valid dataset rejected: %v", err)
	}
}

func TestEmptyDatasetFreeRider(t *testing.T) {
	clients, test := FederatedWriters(2, 25, 60, 9)
	rider := EmptyDataset("rider", clients[0].Dim(), clients[0].NumClasses)
	fed, err := NewFederation(
		WithClients(
			Client{Name: "a", Data: clients[0]},
			Client{Name: "b", Data: clients[1]},
			Client{Name: "rider", Data: rider},
		),
		WithTestSet(test),
		WithLogReg(),
		WithFLRounds(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fed.ExactValues(1)
	if err != nil {
		t.Fatal(err)
	}
	// Null-player property: the free rider's exact value is ~0.
	if math.Abs(rep.Values[2]) > 0.02 {
		t.Errorf("free rider value %v, want ≈0", rep.Values[2])
	}
	if rep.Values[0] <= 0 || rep.Values[1] <= 0 {
		t.Errorf("contributing clients should have positive value: %v", rep.Values)
	}
}

func TestDuplicateClientsSymmetry(t *testing.T) {
	clients, test := FederatedWriters(2, 25, 60, 13)
	dup := clients[0].Clone()
	fed, err := NewFederation(
		WithClients(
			Client{Name: "a", Data: clients[0]},
			Client{Name: "a-copy", Data: dup},
			Client{Name: "b", Data: clients[1]},
		),
		WithTestSet(test),
		WithLogReg(),
		WithFLRounds(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fed.ExactValues(1)
	if err != nil {
		t.Fatal(err)
	}
	// Symmetric-fairness: identical datasets get identical exact values.
	if math.Abs(rep.Values[0]-rep.Values[1]) > 1e-9 {
		t.Errorf("duplicates valued differently: %v vs %v", rep.Values[0], rep.Values[1])
	}
}

func TestUtilityMonotoneExtremes(t *testing.T) {
	fed := tinyFederation(t)
	full := mustUtility(t, fed, []int{0, 1, 2})
	empty := mustUtility(t, fed, nil)
	if full <= empty {
		t.Errorf("U(N)=%v should exceed U(∅)=%v on a learnable task", full, empty)
	}
}

func TestCNNFederation(t *testing.T) {
	clients, test := FederatedWriters(3, 20, 40, 17)
	fed, err := NewFederation(
		WithDatasets(clients...),
		WithTestSet(test),
		WithCNN(2),
		WithFLRounds(1),
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
}

func TestTooManyClients(t *testing.T) {
	clients, test := FederatedWriters(2, 5, 10, 19)
	many := make([]*Dataset, 128)
	for i := range many {
		many[i] = clients[0]
	}
	_, err := NewFederation(WithDatasets(many...), WithTestSet(test))
	if err == nil {
		t.Errorf("128 clients should be rejected")
	}
	// 100 clients (the paper's Fig. 9 ceiling) are accepted.
	if _, err := NewFederation(WithDatasets(many[:100]...), WithTestSet(test), WithLogReg()); err != nil {
		t.Errorf("100 clients rejected: %v", err)
	}
}
