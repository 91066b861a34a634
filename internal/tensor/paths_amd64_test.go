package tensor_test

import (
	"math"
	"math/rand"
	"testing"

	"fedshap/internal/dataset"
	"fedshap/internal/fl"
	"fedshap/internal/model"
	"fedshap/internal/tensor"
)

// TestTrainingIsPathIndependent: every model built on the kernels trains
// through FedAvg to the same parameter bits, and scores the same accuracy,
// on the assembly as on the Go loops — the kernel contract seen from the
// layers that rely on it.
func TestTrainingIsPathIndependent(t *testing.T) {
	if !tensor.HasAVX2() {
		t.Skip("this CPU has no AVX2: the Go loops are the only path")
	}
	clients, test := dataset.FEMNISTLike(dataset.DefaultFEMNISTLike(4, 30, 27))
	dim, classes := test.Dim(), test.NumClasses
	factories := []struct {
		name string
		new  model.Factory
	}{
		{"logreg", func(seed int64) model.Model { return model.NewLogReg(dim, classes, seed) }},
		{"mlp", func(seed int64) model.Model { return model.NewMLP(dim, 32, classes, seed) }},
		{"deepmlp", func(seed int64) model.Model { return model.NewDeepMLP([]int{dim, 17, 9, classes}, seed) }},
		{"cnn", func(seed int64) model.Model { return model.NewCNN(test.ImageW, test.ImageH, 3, classes, seed) }},
	}
	cfg := fl.Config{Rounds: 2, LocalEpochs: 2, LR: 0.05, Seed: 5, WeightBySize: true}
	train := func(f model.Factory) (tensor.Vector, float64) {
		m := fl.Train(f, clients, cfg)
		return m.(model.Parametric).Params(), model.Accuracy(m, test)
	}
	for _, f := range factories {
		asmParams, asmAcc := train(f.new)
		var goParams tensor.Vector
		var goAcc float64
		tensor.WithGoLoops(func() { goParams, goAcc = train(f.new) })
		if math.Float64bits(asmAcc) != math.Float64bits(goAcc) {
			t.Errorf("%s: accuracy %v on the assembly, %v on the Go loops", f.name, asmAcc, goAcc)
		}
		for i := range goParams {
			if math.Float64bits(asmParams[i]) != math.Float64bits(goParams[i]) {
				t.Errorf("%s: parameter %d is %v on the assembly, %v on the Go loops", f.name, i, asmParams[i], goParams[i])
				break
			}
		}
	}
}

// referenceEpoch is model.Dense's TrainEpoch on row-major weights, every
// update skipping its zero-scale rows: the algorithm the panel layout and
// the deferred, unskipped first-layer update must reproduce bit for bit.
// params is the network's flat [W0, B0, W1, B1, ...] vector.
func referenceEpoch(dims []int, params tensor.Vector, ds *dataset.Dataset, lr float64, rng *rand.Rand) {
	type layer struct {
		w         tensor.Matrix
		b, act, g tensor.Vector
	}
	layers := make([]layer, len(dims)-1)
	p := params
	for l := range layers {
		out, in := dims[l+1], dims[l]
		layers[l] = layer{w: tensor.Matrix{Rows: out, Cols: in, Data: p[:out*in]}, b: p[out*in : out*in+out],
			act: tensor.NewVector(out), g: tensor.NewVector(out)}
		p = p[out*in+out:]
	}
	last := len(layers) - 1
	for _, i := range rng.Perm(ds.Len()) {
		x := ds.X.Row(i)
		in := x
		for l := range layers[:last] {
			layers[l].w.MulVec(in, layers[l].act)
			layers[l].act.BiasReLU(layers[l].b)
			in = layers[l].act
		}
		out := &layers[last]
		out.w.MulVec(in, out.act)
		for c, b := range out.b {
			out.act[c] += b
		}
		g := tensor.Softmax(out.act, out.act)
		if y := ds.Y[i]; uint(y) < uint(len(g)) {
			g[y] -= 1
		}
		for l := last; l > 0; l-- {
			ly, below := &layers[l], &layers[l-1]
			ly.w.MulVecT(g, below.g)
			below.g.ReLUMask(below.act)
			ly.b.AddScaled(-lr, g)
			ly.w.AddOuterScaled(-lr, g, below.act)
			g = below.g
		}
		layers[0].b.AddScaled(-lr, g)
		layers[0].w.AddOuterScaled(-lr, g, x)
	}
}

// TestPackedTrainingMatchesRowMajor: model.Dense keeps its first layer in
// the panel layout, defers each sample's first-layer update into the next
// sample's forward and runs it on every row when it may. Whole epochs of
// it give the bits of referenceEpoch, on the assembly and on the Go loops,
// for hidden widths that leave every panel remainder, with −0 and NaN
// weights set through SetParams, samples with NaN and ±Inf features, and
// scales that are zero or underflow to zero.
func TestPackedTrainingMatchesRowMajor(t *testing.T) {
	const in, classes = 13, 5
	rng := rand.New(rand.NewSource(36))
	ds := dataset.New("packed", 40, in, classes)
	for j := range ds.X.Data {
		ds.X.Data[j] = rng.NormFloat64()
	}
	for i := range ds.Y {
		ds.Y[i] = rng.Intn(classes)
	}
	nonFinite := ds.Clone()
	nonFinite.X.Row(3)[5] = math.NaN()
	nonFinite.X.Row(11)[0] = math.Inf(1)
	nonFinite.X.Row(12)[in-1] = math.Inf(-1)
	nonFinite.X.Row(30)[7] = math.Inf(1)
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name string
		data *dataset.Dataset
		lr   float64
		// set edits the row-major parameters before SetParams; w0 is the
		// first layer's weight count.
		set func(p tensor.Vector, w0 int)
	}{
		{"clean", ds, 0.05, nil},
		{"zero first-layer weights", ds, 0.05, func(p tensor.Vector, w0 int) {
			for j := 0; j < w0; j += 3 {
				p[j] = 0
			}
		}},
		// The first hidden unit's bias keeps it dead, so its −0 weights are
		// never overwritten: only the unskipped update could turn them +0.
		{"−0 first-layer weights", ds, 0.05, func(p tensor.Vector, w0 int) {
			for j := 1; j < w0; j += 5 {
				p[j] = negZero
			}
			p[w0] = -1e300
		}},
		// Adding ±0 keeps a quiet NaN's bits and quiets a signalling one.
		{"NaN first-layer weights", ds, 0.05, func(p tensor.Vector, w0 int) {
			p[w0/2], p[w0/3] = math.NaN(), math.Float64frombits(0x7ff0_0000_0000_0001)
		}},
		{"NaN output weight", ds, 0.05, func(p tensor.Vector, w0 int) { p[len(p)-classes-1] = math.NaN() }},
		{"NaN and ±Inf features", nonFinite, 0.05, nil},
		{"underflowing scales", ds, 1e-320, nil},
		{"zero learning rate", ds, 0, nil},
	}
	train := func(hidden []int, c int) (packed, reference tensor.Vector) {
		tc := cases[c]
		dims := append(append([]int{in}, hidden...), classes)
		m := model.NewDeepMLP(dims, int64(len(hidden)*100+hidden[0]))
		p := m.Params()
		if tc.set != nil {
			tc.set(p, in*hidden[0])
			m.SetParams(p)
		}
		mRNG, refRNG := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
		for range 3 {
			m.TrainEpoch(tc.data, tc.lr, mRNG)
			referenceEpoch(dims, p, tc.data, tc.lr, refRNG)
		}
		return m.Params(), p
	}
	for _, hidden := range [][]int{{4}, {12}, {16}, {30}, {32}, {30, 6}} {
		for c, tc := range cases {
			var goPacked, goRef tensor.Vector
			tensor.WithGoLoops(func() { goPacked, goRef = train(hidden, c) })
			asmPacked, asmRef := train(hidden, c)
			for _, run := range []struct {
				path           string
				packed, wanted tensor.Vector
			}{{"Go loops", goPacked, goRef}, {"assembly", asmPacked, asmRef}} {
				for i := range run.wanted {
					if math.Float64bits(run.packed[i]) != math.Float64bits(run.wanted[i]) {
						t.Errorf("hidden %v, %s, %s: parameter %d is %v (%#x), row-major reference %v (%#x)",
							hidden, tc.name, run.path, i, run.packed[i], math.Float64bits(run.packed[i]),
							run.wanted[i], math.Float64bits(run.wanted[i]))
						break
					}
				}
			}
		}
	}
}
