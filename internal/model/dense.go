package model

import (
	"math/rand"
	"slices"

	"fedshap/internal/dataset"
	"fedshap/internal/tensor"
)

// Dense is a fully connected softmax classifier over the layer widths
// [in, hidden..., out]: each hidden layer is affine then ReLU, the output
// layer affine then softmax, trained by per-sample SGD backprop on
// cross-entropy. The suite's perceptrons are its shapes: NewLogReg is the
// zero-hidden-layer case (multinomial logistic regression), NewMLP the
// one-hidden-layer "MLP" of the paper's Tables IV and V, and NewDeepMLP
// any depth.
type Dense struct {
	dims   []int         // layer widths [in, hidden..., out]; never mutated, so clones share it
	params tensor.Vector // [W0, B0, W1, B1, ...]; every layer's w and b are views into it
	layers []layer
	perm   []int
}

// layer is one affine map of a Dense network plus its training scratch.
type layer struct {
	w tensor.Matrix // out × in
	b tensor.Vector // out
	// act is the layer's output: post-ReLU, or the class probabilities on
	// the output layer.
	act tensor.Vector
	// grad is the loss gradient with respect to a hidden layer's
	// pre-activation. The output layer has none: crossEntropyGrad turns its
	// act into that gradient in place.
	grad tensor.Vector
}

// NewDeepMLP returns the network with layer widths dims = [in, hidden...,
// out], its weights Xavier-initialised layer by layer from one seeded
// source and its biases zero.
func NewDeepMLP(dims []int, seed int64) *Dense {
	if len(dims) < 2 {
		panic("model: a dense network needs the widths [in, hidden..., out] with at least in and out")
	}
	m := newDense(slices.Clone(dims))
	rng := rand.New(rand.NewSource(seed))
	for l := range m.layers {
		m.layers[l].w.XavierInit(rng)
	}
	return m
}

// NewMLP returns the one-hidden-layer perceptron in → ReLU hidden → softmax
// out.
func NewMLP(in, hidden, out int, seed int64) *Dense {
	return NewDeepMLP([]int{in, hidden, out}, seed)
}

// NewLogReg returns softmax regression, the zero-hidden-layer network: the
// cheapest classifier in the suite and the workhorse of fast unit tests.
func NewLogReg(dim, classes int, seed int64) *Dense {
	return NewDeepMLP([]int{dim, classes}, seed)
}

// newDense lays out a zero network of the given widths over one parameter
// vector and one scratch vector.
func newDense(dims []int) *Dense {
	nParams, nScratch := 0, -dims[len(dims)-1] // the output layer has no grad
	for l := 1; l < len(dims); l++ {
		nParams += dims[l]*dims[l-1] + dims[l]
		nScratch += 2 * dims[l]
	}
	m := &Dense{dims: dims, params: make(tensor.Vector, nParams), layers: make([]layer, len(dims)-1)}
	p, s := m.params, make(tensor.Vector, nScratch)
	for l := range m.layers {
		out, in := dims[l+1], dims[l]
		ly := &m.layers[l]
		ly.w = tensor.Matrix{Rows: out, Cols: in, Data: take(&p, out*in)}
		ly.b = take(&p, out)
		ly.act = take(&s, out)
		if l+1 < len(m.layers) {
			ly.grad = take(&s, out)
		}
	}
	return m
}

// take splits the first n elements off *v as a view that cannot grow into
// the rest.
func take(v *tensor.Vector, n int) tensor.Vector {
	head := (*v)[:n:n]
	*v = (*v)[n:]
	return head
}

// forward runs the network on x, leaving every layer's act set, and returns
// the class probabilities (the output layer's act).
func (m *Dense) forward(x tensor.Vector) tensor.Vector {
	last := len(m.layers) - 1
	for l := range m.layers[:last] {
		ly := &m.layers[l]
		ly.w.MulVec(x, ly.act)
		ly.act.BiasReLU(ly.b)
		x = ly.act
	}
	out := &m.layers[last]
	out.w.MulVec(x, out.act)
	for c, b := range out.b {
		out.act[c] += b
	}
	return tensor.Softmax(out.act, out.act)
}

// Score returns class probabilities for x.
func (m *Dense) Score(x tensor.Vector) tensor.Vector {
	return m.forward(x).Clone()
}

// PredictClass implements Classifier without the per-sample copy Score pays.
func (m *Dense) PredictClass(x tensor.Vector) int {
	return predictedClass(m.forward(x))
}

// Clone returns a deep copy: a fresh layout of the same shape with the
// parameters copied in.
func (m *Dense) Clone() Model {
	c := newDense(m.dims)
	copy(c.params, m.params)
	return c
}

// NumParams returns the total trainable parameter count.
func (m *Dense) NumParams() int { return len(m.params) }

// Params returns the flattened [W0, B0, W1, B1, ...].
func (m *Dense) Params() tensor.Vector { return m.AppendParams(nil) }

// AppendParams appends the flattened [W0, B0, W1, B1, ...] to dst.
func (m *Dense) AppendParams(dst tensor.Vector) tensor.Vector {
	return append(dst, m.params...)
}

// SetParams restores parameters from a flat vector.
func (m *Dense) SetParams(p tensor.Vector) {
	if len(p) != len(m.params) {
		panic("model: Dense.SetParams length mismatch")
	}
	copy(m.params, p)
}

// TrainEpoch runs one epoch of per-sample SGD backprop on cross-entropy.
func (m *Dense) TrainEpoch(ds *dataset.Dataset, lr float64, rng *rand.Rand) {
	m.perm = permInto(rng, ds.Len(), m.perm)
	for _, i := range m.perm {
		x := ds.X.Row(i)
		// Output gradient dL/dlogit_c = p_c − 1{c==y}, in the probabilities'
		// buffer.
		g := crossEntropyGrad(m.forward(x), ds.Y[i])
		for l := len(m.layers) - 1; l > 0; l-- {
			ly, below := &m.layers[l], &m.layers[l-1]
			// Backprop into the layer below needs w before its update.
			ly.w.MulVecT(g, below.grad)
			below.grad.ReLUMask(below.act)
			ly.b.AddScaled(-lr, g)
			ly.w.AddOuterScaled(-lr, g, below.act)
			g = below.grad
		}
		first := &m.layers[0]
		first.b.AddScaled(-lr, g)
		first.w.AddOuterScaled(-lr, g, x)
	}
}
