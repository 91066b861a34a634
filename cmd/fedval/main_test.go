package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"fedshap"
	"fedshap/internal/experiments"
	"fedshap/internal/model"
)

// A CSV federation trains the model families every other dataset trains:
// -model deepmlp is the two-hidden-layer network, and -model cnn, which
// needs an image shape no CSV file carries, is refused instead of silently
// training a one-hidden-layer MLP.
func TestCSVProblemModels(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&b, "%d,%d,%d,%d\n", i%7, (i*3)%5, i%2, i%3)
	}
	path := filepath.Join(t.TempDir(), "pool.csv")
	if err := os.WriteFile(path, []byte(b.String()), 0o600); err != nil {
		t.Fatal(err)
	}
	req := fedshap.JobRequest{Data: "csv", Model: "deepmlp", N: 3, Seed: 1, Scale: "tiny"}

	p, err := csvProblem(path, req)
	if err != nil {
		t.Fatal(err)
	}
	sc := experiments.Tiny()
	want := model.NewDeepMLP([]int{3, sc.Hidden, sc.Hidden / 2, 3}, 7).Params()
	if got := p.Spec.Factory(7).(model.Parametric).Params(); !slices.Equal(got, want) {
		t.Errorf("-model deepmlp on CSV built %d parameters, want the [3 %d %d 3] network's %d",
			len(got), sc.Hidden, sc.Hidden/2, len(want))
	}

	req.Model = "cnn"
	if _, err := csvProblem(path, req); err == nil || !strings.Contains(err.Error(), "image shape") {
		t.Errorf("-model cnn on CSV: error %v, want one naming the missing image shape", err)
	}
}
