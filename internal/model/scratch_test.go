package model

import (
	"math"
	"math/rand"
	"testing"
)

// TestPredictClassMatchesScore checks the allocation-free fast path agrees
// with the allocating Score on every classifier.
func TestPredictClassMatchesScore(t *testing.T) {
	ds := benchData(200, 16, 4, 9)
	img := benchImageData(200, 6, 6, 4, 9)
	xgb := NewXGB(4, DefaultXGBConfig(), 3)
	xgb.Fit(benchData(100, 16, 4, 4))
	cases := []struct {
		name string
		m    Model
	}{
		{"logreg", NewLogReg(16, 4, 2)},
		{"mlp", NewMLP(16, 8, 4, 2)},
		{"deepmlp", NewDeepMLP([]int{16, 8, 6, 4}, 2)},
		{"cnn", NewCNN(6, 6, 3, 4, 2)},
		{"xgb", xgb},
	}
	for _, tc := range cases {
		c, ok := tc.m.(Classifier)
		if !ok {
			t.Fatalf("%s does not implement Classifier", tc.name)
		}
		data := ds
		if tc.name == "cnn" {
			data = img
		}
		for i := 0; i < data.Len(); i++ {
			x := data.X.Row(i)
			want := tc.m.Score(x).ArgMax()
			if got := c.PredictClass(x); got != want {
				t.Fatalf("%s sample %d: PredictClass = %d, Score argmax = %d", tc.name, i, got, want)
			}
		}
	}
}

// scoreOnly hides a model's fast paths, leaving what Model promises.
type scoreOnly struct{ Model }

// TestNegMSEFastPathMatchesScore: the Regressor fast path must return the
// bits the Score path returns, and a linear-regression utility must not
// allocate per test sample.
func TestNegMSEFastPathMatchesScore(t *testing.T) {
	ds := benchData(200, 16, 4, 9)
	m := NewLinReg(16)
	rng := rand.New(rand.NewSource(5))
	for e := 0; e < 3; e++ {
		m.TrainEpoch(ds, 0.01, rng)
	}
	y := make([]float64, ds.Len())
	for i := range y {
		y[i] = float64(ds.Y[i]) + 0.25
	}
	if got, want := NegMSE(m, ds), NegMSE(scoreOnly{m}, ds); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("NegMSE fast path = %v, Score path = %v", got, want)
	}
	if got, want := NegMSEFloat(m, ds.X, y), NegMSEFloat(scoreOnly{m}, ds.X, y); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("NegMSEFloat fast path = %v, Score path = %v", got, want)
	}
	var sink float64
	if avg := testing.AllocsPerRun(10, func() { sink += NegMSE(m, ds) + NegMSEFloat(m, ds.X, y) }); avg != 0 {
		t.Errorf("NegMSE + NegMSEFloat on LinReg made %v allocations, want 0", avg)
	}
}
