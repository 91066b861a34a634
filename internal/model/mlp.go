package model

import (
	"math/rand"
	"slices"

	"fedshap/internal/dataset"
	"fedshap/internal/tensor"
)

// MLP is a one-hidden-layer perceptron (input → ReLU hidden → softmax
// output) trained by per-sample SGD backprop — the "MLP" model of the
// paper's Tables IV and V.
type MLP struct {
	W1     *tensor.Matrix // hidden × in
	B1     tensor.Vector  // hidden
	W2     *tensor.Matrix // out × hidden
	B2     tensor.Vector  // out
	In     int
	Hidden int
	Out    int

	// scratch buffers reused across samples and epochs (not model state)
	h, dh, logits tensor.Vector
	perm          []int
}

// NewMLP constructs an MLP with Xavier-initialised weights.
func NewMLP(in, hidden, out int, seed int64) *MLP {
	rng := rand.New(rand.NewSource(seed))
	m := &MLP{
		W1: tensor.NewMatrix(hidden, in),
		B1: tensor.NewVector(hidden),
		W2: tensor.NewMatrix(out, hidden),
		B2: tensor.NewVector(out),
		In: in, Hidden: hidden, Out: out,
		h:      tensor.NewVector(hidden),
		dh:     tensor.NewVector(hidden),
		logits: tensor.NewVector(out),
	}
	m.W1.XavierInit(rng)
	m.W2.XavierInit(rng)
	return m
}

// forward computes hidden activations into m.h and class probabilities into
// m.logits (in place), returning the probability vector.
func (m *MLP) forward(x tensor.Vector) tensor.Vector {
	m.W1.MulVec(x, m.h)
	for j := range m.h {
		m.h[j] = tensor.ReLU(m.h[j] + m.B1[j])
	}
	m.W2.MulVec(m.h, m.logits)
	for c := range m.logits {
		m.logits[c] += m.B2[c]
	}
	return tensor.Softmax(m.logits, m.logits)
}

// Score returns class probabilities for x.
func (m *MLP) Score(x tensor.Vector) tensor.Vector {
	return m.forward(x).Clone()
}

// PredictClass implements Classifier without the per-sample copy Score pays.
func (m *MLP) PredictClass(x tensor.Vector) int {
	return m.forward(x).ArgMax()
}

// Clone returns a deep copy.
func (m *MLP) Clone() Model {
	return &MLP{
		W1: m.W1.Clone(), B1: m.B1.Clone(),
		W2: m.W2.Clone(), B2: m.B2.Clone(),
		In: m.In, Hidden: m.Hidden, Out: m.Out,
		h:      tensor.NewVector(m.Hidden),
		dh:     tensor.NewVector(m.Hidden),
		logits: tensor.NewVector(m.Out),
	}
}

// NumParams returns the total trainable parameter count.
func (m *MLP) NumParams() int {
	return m.Hidden*m.In + m.Hidden + m.Out*m.Hidden + m.Out
}

// Params returns the flattened [W1, B1, W2, B2].
func (m *MLP) Params() tensor.Vector { return m.AppendParams(nil) }

// AppendParams appends the flattened [W1, B1, W2, B2] to dst.
func (m *MLP) AppendParams(dst tensor.Vector) tensor.Vector {
	dst = slices.Grow(dst, m.NumParams())
	dst = append(dst, m.W1.Data...)
	dst = append(dst, m.B1...)
	dst = append(dst, m.W2.Data...)
	return append(dst, m.B2...)
}

// SetParams restores parameters from a flat vector.
func (m *MLP) SetParams(p tensor.Vector) {
	if len(p) != m.NumParams() {
		panic("model: MLP.SetParams length mismatch")
	}
	o := 0
	o += copy(m.W1.Data, p[o:o+len(m.W1.Data)])
	o += copy(m.B1, p[o:o+len(m.B1)])
	o += copy(m.W2.Data, p[o:o+len(m.W2.Data)])
	copy(m.B2, p[o:])
}

// TrainEpoch runs one epoch of per-sample SGD backprop on cross-entropy.
func (m *MLP) TrainEpoch(ds *dataset.Dataset, lr float64, rng *rand.Rand) {
	m.perm = permInto(rng, ds.Len(), m.perm)
	for _, i := range m.perm {
		x := ds.X.Row(i)
		// Output layer gradient dL/dlogit_c = p_c - 1{c==y}.
		g := crossEntropyGrad(m.forward(x), ds.Y[i])
		// Backprop into hidden first (needs W2 before its update).
		m.W2.MulVecT(g, m.dh)
		m.B2.AddScaled(-lr, g)
		m.W2.AddOuterScaled(-lr, g, m.h)
		// Hidden layer: ReLU gate then input-layer update.
		for j, hj := range m.h {
			if hj <= 0 {
				m.dh[j] = 0
			}
		}
		m.B1.AddScaled(-lr, m.dh)
		m.W1.AddOuterScaled(-lr, m.dh, x)
	}
}
