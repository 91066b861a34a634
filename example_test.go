package fedshap_test

import (
	"fmt"

	"fedshap"
)

// ExampleNewFederation values a small federation with the exact Shapley
// value. Everything is seeded, so the output is reproducible.
func ExampleNewFederation() {
	clients, test := fedshap.FederatedWriters(3, 40, 120, 7)
	fed, err := fedshap.NewFederation(
		fedshap.WithDatasets(clients...),
		fedshap.WithTestSet(test),
		fedshap.WithLogReg(),
		fedshap.WithFLRounds(2),
		fedshap.WithSeed(11),
	)
	if err != nil {
		panic(err)
	}
	report, err := fed.ExactValues(1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("clients: %d, coalition evaluations: %d\n", fed.N(), report.Evaluations)
	// Output:
	// clients: 3, coalition evaluations: 8
}

// ExampleIPSS shows the paper's algorithm staying within its sampling
// budget γ.
func ExampleIPSS() {
	clients, test := fedshap.FederatedWriters(6, 30, 90, 7)
	fed, err := fedshap.NewFederation(
		fedshap.WithDatasets(clients...),
		fedshap.WithTestSet(test),
		fedshap.WithLogReg(),
		fedshap.WithFLRounds(2),
	)
	if err != nil {
		panic(err)
	}
	gamma := fed.RecommendedGamma() // Table III: n=6 → γ=8
	report, err := fed.Value(fedshap.IPSS(gamma), 1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("budget %d, used %d of 2^6=64 coalitions\n", gamma, report.Evaluations)
	// Output:
	// budget 8, used 8 of 2^6=64 coalitions
}

// ExampleFederation_Utility inspects the underlying cooperative game: the
// utility of an explicit coalition of clients.
func ExampleFederation_Utility() {
	clients, test := fedshap.FederatedWriters(3, 40, 120, 7)
	fed, err := fedshap.NewFederation(
		fedshap.WithDatasets(clients...),
		fedshap.WithTestSet(test),
		fedshap.WithLogReg(),
		fedshap.WithFLRounds(2),
		fedshap.WithSeed(11),
	)
	if err != nil {
		panic(err)
	}
	full, err := fed.Utility([]int{0, 1, 2})
	if err != nil {
		panic(err)
	}
	empty, err := fed.Utility(nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("U(N) > U(empty): %v\n", full > empty)
	// Output:
	// U(N) > U(empty): true
}

// ExamplePlanBudget picks an IPSS budget from a target relative error using
// the paper's Theorem 3 bound.
func ExamplePlanBudget() {
	gamma := fedshap.PlanBudget(10, 1000, 8, 0.01)
	fmt.Printf("γ for 1%% target at n=10: %d (vs 1024 exact)\n", gamma)
	// Output:
	// γ for 1% target at n=10: 11 (vs 1024 exact)
}
