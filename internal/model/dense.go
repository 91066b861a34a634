package model

import (
	"math"
	"math/rand"
	"slices"

	"fedshap/internal/combin"
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
//
// When the network has a hidden layer, the first layer's weights are
// stored in tensor's panel layout, the rest row-major; Params, AppendParams
// and SetParams convert, so every caller sees row-major weights. The first
// layer's forward is then shuffle-free, and TrainEpoch defers each sample's
// first-layer update into the next sample's forward (see TrainEpoch).
//
// A network without a hidden layer stays row-major. Packed, the 100×10
// softmax regression of the femnist problems trained 17 % more slowly
// (median of 16 alternating pairs, none faster) and scored no faster: its
// last panel has two rows, whose update runs on the Go loop, where
// AddOuterScaled's assembly takes every row.
type Dense struct {
	params tensor.Vector // [W0, B0, W1, B1, ...]; every layer's w and b are views into it
	layers []layer
	perm   []int
	// zeroSafe records that no first-layer weight was −0 or NaN where the
	// weights came in (construction, SetParams). Training keeps that true
	// (see the tensor package comment), so while it holds the first
	// layer's update may run on every row, zero scales included.
	zeroSafe bool
}

// layer is one affine map of a Dense network plus its training scratch.
type layer struct {
	w tensor.Matrix // out × in; the first layer's in the panel layout when Dense.packed
	b tensor.Vector // out
	// act is the layer's output: post-ReLU, or on the output layer the
	// logits, which forward turns into the class probabilities in place.
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
	m := newDense(len(dims), func(l int) int { return dims[l] })
	rng := rand.New(rand.NewSource(seed))
	for l := range m.layers {
		if l == 0 && m.packed() {
			m.layers[0].w.PanelXavierInit(rng)
			continue
		}
		m.layers[l].w.XavierInit(rng)
	}
	m.zeroSafe = tensor.NoNegZeroOrNaN(m.layers[0].w.Data)
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

// newDense lays out a zero network of n widths, width(0) the input's,
// over one parameter vector and one scratch vector.
func newDense(n int, width func(l int) int) *Dense {
	nParams, nScratch := 0, -width(n-1) // the output layer has no grad
	for l := 1; l < n; l++ {
		nParams += width(l)*width(l-1) + width(l)
		nScratch += 2 * width(l)
	}
	m := &Dense{params: make(tensor.Vector, nParams), layers: make([]layer, n-1)}
	p, s := m.params, make(tensor.Vector, nScratch)
	for l := range m.layers {
		out, in := width(l+1), width(l)
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

// width returns the network's l-th layer width, l = 0 the input's.
func (m *Dense) width(l int) int {
	if l == 0 {
		return m.layers[0].w.Cols
	}
	return m.layers[l-1].w.Rows
}

// packed reports whether the first layer's weights are in the panel
// layout: whenever the network has a hidden layer (see Dense).
func (m *Dense) packed() bool { return len(m.layers) > 1 }

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
	z := m.logits(x)
	return tensor.Softmax(z, z)
}

// logits runs the network on x and returns the output layer's
// pre-softmax scores, in its act.
func (m *Dense) logits(x tensor.Vector) tensor.Vector {
	first := &m.layers[0]
	if m.packed() {
		first.w.PanelMulVec(x, first.act)
	} else {
		first.w.MulVec(x, first.act)
	}
	return m.above()
}

// above finishes the forward pass whose first-layer product W0·x is in the
// first layer's act: the remaining affine maps, ReLU on the hidden layers,
// and the biases. It returns the logits, in the output layer's act.
func (m *Dense) above() tensor.Vector {
	last := len(m.layers) - 1
	for l := range m.layers[:last] {
		ly := &m.layers[l]
		if l > 0 {
			ly.w.MulVec(m.layers[l-1].act, ly.act)
		}
		ly.act.BiasReLU(ly.b)
	}
	out := &m.layers[last]
	if last > 0 {
		out.w.MulVec(m.layers[last-1].act, out.act)
	}
	for c, b := range out.b {
		out.act[c] += b
	}
	return out.act
}

// Score returns class probabilities for x.
func (m *Dense) Score(x tensor.Vector) tensor.Vector {
	return m.forward(x).Clone()
}

// PredictClass implements Classifier without the per-sample copy Score pays,
// and without the softmax: see logitClass.
func (m *Dense) PredictClass(x tensor.Vector) int {
	return logitClass(m.logits(x))
}

// logitClass returns predictedClass(Softmax(z)), overwriting z only when it
// computes the softmax: the first strict maximum of z, unless a logit is
// NaN or ±Inf (a diverged model, which predicts −1) or an earlier logit is
// within 1e-12 of the maximum, where rounding could tie their
// probabilities (see the tensor package comment).
func logitClass(z tensor.Vector) int {
	if len(z) == 0 {
		return -1
	}
	best := 0
	for c, v := range z {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return predictedClass(tensor.Softmax(z, z))
		}
		if v > z[best] {
			best = c
		}
	}
	for _, v := range z[:best] {
		if z[best]-v <= 1e-12 {
			return predictedClass(tensor.Softmax(z, z))
		}
	}
	return best
}

// Clone returns a deep copy: a fresh layout of the same shape with the
// parameters copied in as they are stored.
func (m *Dense) Clone() Model {
	c := newDense(len(m.layers)+1, m.width)
	copy(c.params, m.params)
	c.zeroSafe = m.zeroSafe
	return c
}

// NumParams returns the total trainable parameter count.
func (m *Dense) NumParams() int { return len(m.params) }

// Params returns the flattened [W0, B0, W1, B1, ...].
func (m *Dense) Params() tensor.Vector { return m.AppendParams(nil) }

// AppendParams appends the flattened [W0, B0, W1, B1, ...], every W
// row-major, to dst.
func (m *Dense) AppendParams(dst tensor.Vector) tensor.Vector {
	if !m.packed() {
		return append(dst, m.params...)
	}
	w := &m.layers[0].w
	dst = w.AppendUnpacked(slices.Grow(dst, len(m.params)))
	return append(dst, m.params[len(w.Data):]...)
}

// SetParams restores parameters from a flat vector in AppendParams' order.
func (m *Dense) SetParams(p tensor.Vector) {
	if len(p) != len(m.params) {
		panic("model: Dense.SetParams length mismatch")
	}
	if !m.packed() {
		copy(m.params, p)
		return
	}
	w := &m.layers[0].w
	n := len(w.Data)
	m.zeroSafe = tensor.NoNegZeroOrNaN(p[:n])
	w.PackPanels(p[:n])
	copy(m.params[n:], p[n:])
}

// TrainEpoch runs one epoch of per-sample SGD backprop on cross-entropy.
//
// With a hidden layer, each sample's first-layer weight update is deferred
// into the next sample's forward (tensor.PanelAddOuterMulVec); nothing
// reads those weights in between. That update runs on every row, zero
// scales included, which gives the skipping update's bits while zeroSafe
// holds and x is finite (see the tensor package comment); a finite first
// pre-activation proves x finite. Otherwise, and for the epoch's last
// sample, the update skips (tensor.PanelAddOuterScaled).
func (m *Dense) TrainEpoch(ds *dataset.Dataset, lr float64, rng *rand.Rand) {
	m.perm = combin.PermInto(rng, ds.Len(), m.perm)
	first := &m.layers[0]
	if !m.packed() {
		for _, i := range m.perm {
			x := ds.X.Row(i)
			g := crossEntropyGrad(m.forward(x), ds.Y[i])
			first.b.AddScaled(-lr, g)
			first.w.AddOuterScaled(-lr, g, x)
		}
		return
	}
	// prev is the sample whose first-layer update is pending, with its
	// gradient in first.grad; fused says whether that update may run on
	// every row.
	var prev tensor.Vector
	fused := false
	for _, i := range m.perm {
		x := ds.X.Row(i)
		switch {
		case prev == nil:
			first.w.PanelMulVec(x, first.act)
		case fused:
			first.w.PanelAddOuterMulVec(-lr, first.grad, prev, x, first.act)
		default:
			first.w.PanelAddOuterScaled(-lr, first.grad, prev)
			first.w.PanelMulVec(x, first.act)
		}
		a := first.act[0]
		fused = m.zeroSafe && !math.IsNaN(a) && !math.IsInf(a, 0)
		z := m.above()
		// Output gradient dL/dlogit_c = p_c − 1{c==y}, in the probabilities'
		// buffer.
		g := crossEntropyGrad(tensor.Softmax(z, z), ds.Y[i])
		for l := len(m.layers) - 1; l > 0; l-- {
			ly, below := &m.layers[l], &m.layers[l-1]
			// Backprop into the layer below needs w before its update.
			ly.w.MulVecT(g, below.grad)
			below.grad.ReLUMask(below.act)
			ly.b.AddScaled(-lr, g)
			ly.w.AddOuterScaled(-lr, g, below.act)
			g = below.grad
		}
		first.b.AddScaled(-lr, g)
		prev = x
	}
	if prev != nil {
		first.w.PanelAddOuterScaled(-lr, first.grad, prev)
	}
}
