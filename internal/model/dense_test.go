package model

import (
	"math"
	"testing"

	"fedshap/internal/tensor"
)

func TestDeepMLPLearns(t *testing.T) {
	train, test := trainingSet(400, 21)
	m := NewDeepMLP([]int{train.Dim(), 16, 12, train.NumClasses}, 7)
	trainEpochs(m, train, 8, 0.04, 2)
	if acc := Accuracy(m, test); acc < 0.75 {
		t.Errorf("DeepMLP accuracy %v, want > 0.75", acc)
	}
}

func TestDeepMLPParamsRoundTrip(t *testing.T) {
	m := NewDeepMLP([]int{5, 4, 3, 2}, 1)
	p := m.Params()
	if len(p) != m.NumParams() {
		t.Fatalf("Params len %d != NumParams %d", len(p), m.NumParams())
	}
	// NumParams = 4*5+4 + 3*4+3 + 2*3+2 = 24+15+8 = 47.
	if m.NumParams() != 47 {
		t.Errorf("NumParams = %d, want 47", m.NumParams())
	}
	q := p.Clone()
	for i := range q {
		q[i] = float64(i) * 0.01
	}
	m.SetParams(q)
	got := m.Params()
	for i := range q {
		if got[i] != q[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

func TestDeepMLPCloneIsDeep(t *testing.T) {
	m := NewDeepMLP([]int{4, 3, 2}, 1)
	c := m.Clone().(*Dense)
	c.layers[0].w.Data[0] += 7
	if m.layers[0].w.Data[0] == c.layers[0].w.Data[0] {
		t.Errorf("Clone shares weight storage")
	}
}

func TestDeepMLPScoreIsProbability(t *testing.T) {
	m := NewDeepMLP([]int{6, 5, 4, 3}, 3)
	p := m.Score(tensor.Vector{0.5, -0.2, 0.1, 0.9, -0.4, 0.0})
	var sum float64
	for _, v := range p {
		if v < 0 || v > 1 {
			t.Errorf("probability %v out of range", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %v", sum)
	}
}

func TestDeepMLPRejectsTooShallow(t *testing.T) {
	for _, dims := range [][]int{nil, {4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDeepMLP(%v) should panic: a network needs at least [in, out]", dims)
				}
			}()
			NewDeepMLP(dims, 1)
		}()
	}
}

func TestDeepMLPDeterministicTraining(t *testing.T) {
	train, _ := trainingSet(150, 23)
	run := func() tensor.Vector {
		m := NewDeepMLP([]int{train.Dim(), 8, 6, train.NumClasses}, 7)
		trainEpochs(m, train, 2, 0.05, 3)
		return m.Params()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("identical seeds diverged at param %d", i)
		}
	}
}
