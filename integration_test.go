package fedshap

// End-to-end integration tests: every dataset family through every
// applicable model family through the primary algorithms, at trivially
// small sizes. These exercise the same full pipeline as the experiment
// harness (generate → partition → FedAvg → oracle → valuation → metrics)
// through the public API only.

import (
	"math"
	"testing"
)

type pipelineCase struct {
	name  string
	build func(t *testing.T) *Federation
}

func pipelineCases() []pipelineCase {
	return []pipelineCase{
		{"writers+logreg", func(t *testing.T) *Federation {
			clients, test := FederatedWriters(3, 24, 60, 101)
			return mustFederation(t,
				WithDatasets(clients...), WithTestSet(test),
				WithLogReg(), WithFLRounds(2))
		}},
		{"writers+mlp", func(t *testing.T) *Federation {
			clients, test := FederatedWriters(3, 24, 60, 103)
			return mustFederation(t,
				WithDatasets(clients...), WithTestSet(test),
				WithMLP(8), WithFLRounds(2))
		}},
		{"writers+cnn", func(t *testing.T) *Federation {
			clients, test := FederatedWriters(3, 16, 40, 105)
			return mustFederation(t,
				WithDatasets(clients...), WithTestSet(test),
				WithCNN(2), WithFLRounds(1))
		}},
		{"census+xgb", func(t *testing.T) *Federation {
			pool, occ := CensusTabular(260, 107)
			train, test := SplitTrainTest(pool, 0.75, 108)
			// Re-key occupations onto the training subset by recomputing:
			// simplest robust path is IID partitioning of the train split.
			_ = occ
			clients := PartitionIID(train, 3, 109)
			return mustFederation(t,
				WithDatasets(clients...), WithTestSet(test),
				WithXGB(5, 3))
		}},
		{"synthetic+labelskew+mlp", func(t *testing.T) *Federation {
			pool := SyntheticImages(300, 111)
			train, test := SplitTrainTest(pool, 0.8, 112)
			clients := PartitionLabelSkew(train, 3, 0.7, 113)
			return mustFederation(t,
				WithDatasets(clients...), WithTestSet(test),
				WithMLP(8), WithFLRounds(2))
		}},
		{"fedprox+logreg", func(t *testing.T) *Federation {
			clients, test := FederatedWriters(3, 24, 60, 115)
			return mustFederation(t,
				WithDatasets(clients...), WithTestSet(test),
				WithLogReg(), WithFedProx(0.3), WithFLRounds(2))
		}},
	}
}

func mustFederation(t *testing.T, opts ...Option) *Federation {
	t.Helper()
	fed, err := NewFederation(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return fed
}

func TestPipelineExactVsIPSS(t *testing.T) {
	for _, c := range pipelineCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			fed := c.build(t)
			exact, err := fed.ExactValues(1)
			if err != nil {
				t.Fatal(err)
			}
			approx, err := fed.Value(IPSS(fed.RecommendedGamma()), 2)
			if err != nil {
				t.Fatal(err)
			}
			if len(exact.Values) != fed.N() || len(approx.Values) != fed.N() {
				t.Fatalf("value lengths %d/%d for n=%d",
					len(exact.Values), len(approx.Values), fed.N())
			}
			for i := range exact.Values {
				if math.IsNaN(exact.Values[i]) || math.IsNaN(approx.Values[i]) {
					t.Fatalf("NaN value at client %d", i)
				}
			}
			// Efficiency holds for the exact values.
			all := make([]int, fed.N())
			for i := range all {
				all[i] = i
			}
			want := mustUtility(t, fed, all) - mustUtility(t, fed, nil)
			if math.Abs(exact.Values.Sum()-want) > 1e-9 {
				t.Errorf("efficiency violated: Σφ=%v want %v", exact.Values.Sum(), want)
			}
		})
	}
}

func TestPipelineSamplersStayInBudget(t *testing.T) {
	clients, test := FederatedWriters(4, 20, 50, 121)
	fed := mustFederation(t,
		WithDatasets(clients...), WithTestSet(test),
		WithLogReg(), WithFLRounds(2))
	gamma := 9
	for _, alg := range []Valuer{IPSS(gamma), Stratified(MCScheme, gamma), Stratified(CCScheme, gamma)} {
		rep, err := fed.Value(alg, 3)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		// Stratified anchors size-1 marginals on ∅, so allow +1.
		if rep.Evaluations > gamma+1 {
			t.Errorf("%s used %d evaluations for γ=%d", alg.Name(), rep.Evaluations, gamma)
		}
	}
}

func TestPipelineDeterminism(t *testing.T) {
	build := func() *Federation {
		clients, test := FederatedWriters(3, 20, 50, 131)
		fed, err := NewFederation(
			WithDatasets(clients...), WithTestSet(test),
			WithLogReg(), WithFLRounds(2), WithSeed(9))
		if err != nil {
			panic(err)
		}
		return fed
	}
	a, err := build().Value(IPSS(6), 77)
	if err != nil {
		t.Fatal(err)
	}
	b, err := build().Value(IPSS(6), 77)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatalf("same-seed pipelines diverge at client %d", i)
		}
	}
}
