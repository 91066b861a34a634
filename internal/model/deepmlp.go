package model

import (
	"math/rand"
	"slices"

	"fedshap/internal/dataset"
	"fedshap/internal/tensor"
)

// DeepMLP is a multi-hidden-layer perceptron (input → ReLU stack → softmax)
// generalising MLP to arbitrary depth. The valuation algorithms are
// model-agnostic; this family exists to check that the key-combinations
// phenomenon and IPSS accuracy carry over to deeper models than the paper's
// single-hidden-layer MLP.
type DeepMLP struct {
	// Ws[l] is the weight matrix of layer l (out × in); Bs[l] its bias.
	Ws []*tensor.Matrix
	Bs []tensor.Vector
	// Dims holds the layer widths: [in, hidden..., out].
	Dims []int

	// scratch activations and gradients per layer
	acts  []tensor.Vector // acts[l] = output of layer l (post-ReLU / softmax)
	grads []tensor.Vector
	perm  []int
}

// NewDeepMLP constructs a perceptron with the given layer widths
// [input, hidden1, ..., hiddenK, output]. At least one hidden layer is
// required (use LogReg for the zero-hidden case).
func NewDeepMLP(dims []int, seed int64) *DeepMLP {
	if len(dims) < 3 {
		panic("model: DeepMLP needs [in, hidden..., out] with at least one hidden layer")
	}
	rng := rand.New(rand.NewSource(seed))
	m := &DeepMLP{Dims: append([]int(nil), dims...)}
	for l := 0; l+1 < len(dims); l++ {
		w := tensor.NewMatrix(dims[l+1], dims[l])
		w.XavierInit(rng)
		m.Ws = append(m.Ws, w)
		m.Bs = append(m.Bs, tensor.NewVector(dims[l+1]))
		m.acts = append(m.acts, tensor.NewVector(dims[l+1]))
		m.grads = append(m.grads, tensor.NewVector(dims[l+1]))
	}
	return m
}

// layers returns the number of weight layers.
func (m *DeepMLP) layers() int { return len(m.Ws) }

// forward runs the network, caching activations, and returns the output
// probabilities (aliasing the last activation buffer).
func (m *DeepMLP) forward(x tensor.Vector) tensor.Vector {
	in := x
	last := m.layers() - 1
	for l := 0; l <= last; l++ {
		out := m.acts[l]
		m.Ws[l].MulVec(in, out)
		for j := range out {
			out[j] += m.Bs[l][j]
		}
		if l < last {
			for j := range out {
				out[j] = tensor.ReLU(out[j])
			}
		} else {
			tensor.Softmax(out, out)
		}
		in = out
	}
	return m.acts[last]
}

// Score returns class probabilities for x.
func (m *DeepMLP) Score(x tensor.Vector) tensor.Vector {
	return m.forward(x).Clone()
}

// PredictClass implements Classifier without the per-sample copy Score pays.
func (m *DeepMLP) PredictClass(x tensor.Vector) int {
	return m.forward(x).ArgMax()
}

// Clone returns a deep copy.
func (m *DeepMLP) Clone() Model {
	c := NewDeepMLP(m.Dims, 0)
	for l := range m.Ws {
		copy(c.Ws[l].Data, m.Ws[l].Data)
		copy(c.Bs[l], m.Bs[l])
	}
	return c
}

// NumParams returns the total trainable parameter count.
func (m *DeepMLP) NumParams() int {
	n := 0
	for l := range m.Ws {
		n += len(m.Ws[l].Data) + len(m.Bs[l])
	}
	return n
}

// Params returns the flattened layer parameters in order.
func (m *DeepMLP) Params() tensor.Vector { return m.AppendParams(nil) }

// AppendParams appends the flattened layer parameters, in order, to dst.
func (m *DeepMLP) AppendParams(dst tensor.Vector) tensor.Vector {
	dst = slices.Grow(dst, m.NumParams())
	for l := range m.Ws {
		dst = append(dst, m.Ws[l].Data...)
		dst = append(dst, m.Bs[l]...)
	}
	return dst
}

// SetParams restores parameters from a flat vector.
func (m *DeepMLP) SetParams(p tensor.Vector) {
	if len(p) != m.NumParams() {
		panic("model: DeepMLP.SetParams length mismatch")
	}
	o := 0
	for l := range m.Ws {
		o += copy(m.Ws[l].Data, p[o:o+len(m.Ws[l].Data)])
		o += copy(m.Bs[l], p[o:o+len(m.Bs[l])])
	}
}

// TrainEpoch runs one epoch of per-sample SGD backprop through all layers.
func (m *DeepMLP) TrainEpoch(ds *dataset.Dataset, lr float64, rng *rand.Rand) {
	last := m.layers() - 1
	m.perm = permInto(rng, ds.Len(), m.perm)
	for _, i := range m.perm {
		x := ds.X.Row(i)
		// Output gradient wrt logits.
		copy(m.grads[last], m.forward(x))
		crossEntropyGrad(m.grads[last], ds.Y[i])
		// Backward pass: compute the previous layer's gradient before
		// updating this layer's weights.
		for l := last; l >= 0; l-- {
			var input tensor.Vector
			if l == 0 {
				input = x
			} else {
				input = m.acts[l-1]
			}
			if l > 0 {
				prev := m.grads[l-1]
				m.Ws[l].MulVecT(m.grads[l], prev)
				// ReLU gate of the layer below.
				below := m.acts[l-1]
				for j := range prev {
					if below[j] <= 0 {
						prev[j] = 0
					}
				}
			}
			// Update layer l.
			m.Bs[l].AddScaled(-lr, m.grads[l])
			m.Ws[l].AddOuterScaled(-lr, m.grads[l], input)
		}
	}
}
