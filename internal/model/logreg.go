package model

import (
	"math/rand"
	"slices"

	"fedshap/internal/dataset"
	"fedshap/internal/tensor"
)

// LogReg is multinomial logistic (softmax) regression trained by SGD on
// cross-entropy. With one hidden layer removed it is the cheapest
// classifier in the suite and the workhorse of fast unit tests.
type LogReg struct {
	W       *tensor.Matrix // classes × features
	B       tensor.Vector  // classes
	Classes int
	Dim     int

	scratch tensor.Vector
	perm    []int
}

// NewLogReg returns a softmax regressor with Xavier-initialised weights.
func NewLogReg(dim, classes int, seed int64) *LogReg {
	rng := rand.New(rand.NewSource(seed))
	m := &LogReg{
		W:       tensor.NewMatrix(classes, dim),
		B:       tensor.NewVector(classes),
		Classes: classes,
		Dim:     dim,
		scratch: tensor.NewVector(classes),
	}
	m.W.XavierInit(rng)
	return m
}

// Score returns the class probabilities for x.
func (m *LogReg) Score(x tensor.Vector) tensor.Vector {
	logits := m.W.MulVec(x, nil)
	for c := range logits {
		logits[c] += m.B[c]
	}
	return tensor.Softmax(logits, logits)
}

// PredictClass implements Classifier without the per-sample vector Score
// allocates; the softmax is kept so the argmax is computed on exactly the
// probabilities Score would return. The scratch guard covers instances
// built outside the constructors (e.g. decoded off the wire).
func (m *LogReg) PredictClass(x tensor.Vector) int {
	if len(m.scratch) != m.Classes {
		m.scratch = tensor.NewVector(m.Classes)
	}
	logits := m.W.MulVec(x, m.scratch)
	for c := range logits {
		logits[c] += m.B[c]
	}
	return tensor.Softmax(logits, logits).ArgMax()
}

// Clone returns a deep copy.
func (m *LogReg) Clone() Model {
	return &LogReg{
		W: m.W.Clone(), B: m.B.Clone(),
		Classes: m.Classes, Dim: m.Dim,
		scratch: tensor.NewVector(m.Classes),
	}
}

// NumParams returns classes*(dim+1).
func (m *LogReg) NumParams() int { return m.Classes*m.Dim + m.Classes }

// Params returns the flattened [W, B].
func (m *LogReg) Params() tensor.Vector { return m.AppendParams(nil) }

// AppendParams appends the flattened [W, B] to dst.
func (m *LogReg) AppendParams(dst tensor.Vector) tensor.Vector {
	dst = slices.Grow(dst, m.NumParams())
	dst = append(dst, m.W.Data...)
	return append(dst, m.B...)
}

// SetParams restores parameters from a flat vector.
func (m *LogReg) SetParams(p tensor.Vector) {
	if len(p) != m.NumParams() {
		panic("model: LogReg.SetParams length mismatch")
	}
	copy(m.W.Data, p[:len(m.W.Data)])
	copy(m.B, p[len(m.W.Data):])
}

// TrainEpoch runs one epoch of per-sample SGD on softmax cross-entropy.
func (m *LogReg) TrainEpoch(ds *dataset.Dataset, lr float64, rng *rand.Rand) {
	m.perm = permInto(rng, ds.Len(), m.perm)
	for _, i := range m.perm {
		x := ds.X.Row(i)
		g := m.W.MulVec(x, m.scratch)
		for c := range g {
			g[c] += m.B[c]
		}
		g = crossEntropyGrad(tensor.Softmax(g, g), ds.Y[i])
		m.B.AddScaled(-lr, g)
		m.W.AddOuterScaled(-lr, g, x)
	}
}
