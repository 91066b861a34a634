package model

import (
	"encoding/binary"
	"math"
	"slices"
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

// TestPackedParamsRoundTrip: with a hidden layer the first layer's weights
// are stored in tensor's panel layout, element (r, k) of a panel of h rows
// from row p at p·in + k·h + r − p, and Params, AppendParams, SetParams and
// Clone still see the row-major [W0, B0, W1, B1, ...].
func TestPackedParamsRoundTrip(t *testing.T) {
	for _, dims := range [][]int{{5, 4, 3}, {5, 6, 3}, {7, 32, 4}, {3, 13, 5, 2}} {
		m := NewDeepMLP(dims, 1)
		q := make(tensor.Vector, m.NumParams())
		for i := range q {
			q[i] = float64(i) + 0.5
		}
		m.SetParams(q)
		in, rows := dims[0], dims[1]
		w := m.layers[0].w.Data
		for r := range rows {
			p := r &^ 3
			h := min(4, rows-p)
			for k := range in {
				if got, want := w[p*in+k*h+r-p], q[r*in+k]; got != want {
					t.Fatalf("%v: weight (%d, %d) stored as %v, want %v", dims, r, k, got, want)
				}
			}
		}
		c := m.Clone().(Parametric)
		for name, got := range map[string]tensor.Vector{
			"Params":       m.Params(),
			"AppendParams": m.AppendParams(tensor.Vector{-1})[1:],
			"Clone.Params": c.Params(),
		} {
			if !slices.Equal(got, q) {
				t.Errorf("%v: %s is not the vector SetParams was given", dims, name)
			}
		}
	}
}

// FuzzPredictClass: Dense.PredictClass picks the class from the logits
// (logitClass) and must agree with predictedClass(Softmax(z)), −1 for a
// diverged model included. Logits are decoded from raw bytes, eight per
// value, and then once more as ulp offsets from the first logit, which
// makes exact ties and near-ties.
func FuzzPredictClass(f *testing.F) {
	bits := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(bits(0.3, 1.2, -0.7), []byte{})
	f.Add(bits(2, 2, 1), []byte{0, 0, 1})
	f.Add(bits(1, 1+1e-13, 1+2e-12, 0.5), []byte{0, 1, 255, 2})
	f.Add(bits(1e5, 1e5-1e-11, 3), []byte{128, 127})
	// exp(z[0] − z[1]) rounds to 1, so the softmax ties the two classes.
	f.Add(bits(1e-3), []byte{0, 1})
	f.Add(bits(1, math.Inf(1), 0), []byte{})
	f.Add(bits(math.Inf(-1), math.Inf(-1)), []byte{})
	f.Add(bits(0, math.NaN(), 5), []byte{})
	f.Add(bits(-1e308, 1e308, 1e308), []byte{})
	f.Add(bits(math.Copysign(0, -1), 0), []byte{0, 0})
	f.Fuzz(func(t *testing.T, data, ulps []byte) {
		check := func(z tensor.Vector) {
			want := predictedClass(tensor.Softmax(z.Clone(), nil))
			if got := logitClass(z.Clone()); got != want {
				t.Fatalf("logits %v: class %d, softmax path %d", z, got, want)
			}
		}
		var z tensor.Vector
		for ; len(data) >= 8 && len(z) < 16; data = data[8:] {
			z = append(z, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		if len(z) == 0 {
			return
		}
		check(z)
		near := make(tensor.Vector, 0, 16)
		for _, u := range ulps[:min(len(ulps), 16)] {
			near = append(near, math.Float64frombits(math.Float64bits(z[0])+uint64(int64(int8(u)))))
		}
		if len(near) > 0 {
			check(near)
		}
	})
}
