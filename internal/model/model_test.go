package model

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"fedshap/internal/dataset"
	"fedshap/internal/tensor"
)

// trainingSet builds a small, learnable classification task.
func trainingSet(samples int, seed int64) (*dataset.Dataset, *dataset.Dataset) {
	cfg := dataset.DefaultSynthImages(samples, seed)
	cfg.Classes = 4
	cfg.NoiseStd = 0.25
	d := dataset.SynthImages(cfg)
	rng := rand.New(rand.NewSource(seed))
	return d.Split(0.75, rng)
}

func trainEpochs(m Parametric, ds *dataset.Dataset, epochs int, lr float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for e := 0; e < epochs; e++ {
		m.TrainEpoch(ds, lr, rng)
	}
}

func TestLogRegLearns(t *testing.T) {
	train, test := trainingSet(400, 1)
	m := NewLogReg(train.Dim(), train.NumClasses, 7)
	before := Accuracy(m, test)
	trainEpochs(m, train, 5, 0.05, 2)
	after := Accuracy(m, test)
	if after < 0.8 {
		t.Errorf("LogReg accuracy %v (was %v), want > 0.8", after, before)
	}
	if after <= before {
		t.Errorf("training did not improve accuracy: %v -> %v", before, after)
	}
}

func TestMLPLearns(t *testing.T) {
	train, test := trainingSet(400, 3)
	m := NewMLP(train.Dim(), 16, train.NumClasses, 7)
	trainEpochs(m, train, 6, 0.05, 2)
	if acc := Accuracy(m, test); acc < 0.8 {
		t.Errorf("MLP accuracy %v, want > 0.8", acc)
	}
}

func TestCNNLearns(t *testing.T) {
	train, test := trainingSet(300, 5)
	m := NewCNN(10, 10, 4, train.NumClasses, 7)
	trainEpochs(m, train, 6, 0.03, 2)
	if acc := Accuracy(m, test); acc < 0.7 {
		t.Errorf("CNN accuracy %v, want > 0.7", acc)
	}
}

func TestXGBLearns(t *testing.T) {
	train, test := trainingSet(400, 9)
	m := NewXGB(train.NumClasses, DefaultXGBConfig(), 7)
	m.Fit(train)
	if acc := Accuracy(m, test); acc < 0.8 {
		t.Errorf("XGB accuracy %v, want > 0.8", acc)
	}
	trees := 0
	for _, r := range m.trees {
		trees += len(r)
	}
	if trees != m.Rounds*m.Classes {
		t.Errorf("fitted %d trees, want %d", trees, m.Rounds*m.Classes)
	}
}

func TestXGBBinaryTabular(t *testing.T) {
	d, _ := dataset.AdultLike(dataset.DefaultAdultLike(600, 11))
	rng := rand.New(rand.NewSource(1))
	train, test := d.Split(0.8, rng)
	m := NewXGB(2, DefaultXGBConfig(), 3)
	m.Fit(train)
	if acc := Accuracy(m, test); acc < 0.7 {
		t.Errorf("XGB tabular accuracy %v, want > 0.7", acc)
	}
}

func TestXGBEmptyFit(t *testing.T) {
	m := NewXGB(2, DefaultXGBConfig(), 1)
	m.Fit(dataset.New("empty", 0, 3, 2))
	// Untrained model must still score (uniform probabilities).
	p := m.Score(tensor.Vector{1, 2, 3})
	if math.Abs(p[0]-0.5) > 1e-9 {
		t.Errorf("empty-fit XGB probability %v, want 0.5", p[0])
	}
}

func TestLinRegSGDConverges(t *testing.T) {
	// y = 2x0 - 3x1 + 1 over integer features, so the dataset's integer
	// labels carry it exactly.
	rng := rand.New(rand.NewSource(1))
	n := 200
	ds := dataset.New("linear", n, 2, 1)
	for i := 0; i < n; i++ {
		x0, x1 := rng.Intn(5)-2, rng.Intn(5)-2
		ds.X.Set(i, 0, float64(x0))
		ds.X.Set(i, 1, float64(x1))
		ds.Y[i] = 2*x0 - 3*x1 + 1
	}
	m := NewLinReg(2)
	for e := 0; e < 50; e++ {
		m.TrainEpoch(ds, 0.05, rng)
	}
	if math.Abs(m.W[0]-2) > 0.1 || math.Abs(m.W[1]+3) > 0.1 || math.Abs(m.B-1) > 0.1 {
		t.Errorf("SGD fit w=%v b=%v, want [2,-3], 1", m.W, m.B)
	}
}

func TestLinRegOLSExact(t *testing.T) {
	// OLS on noiseless data recovers coefficients near-exactly.
	rng := rand.New(rand.NewSource(2))
	n, d := 50, 3
	X := tensor.NewMatrix(n, d)
	y := make([]float64, n)
	w := []float64{1.5, -2, 0.5}
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < d; j++ {
			v := rng.NormFloat64()
			X.Set(i, j, v)
			s += w[j] * v
		}
		y[i] = s + 0.7
	}
	m := NewLinReg(d)
	m.FitOLS(X, y, 1e-9)
	for j := range w {
		if math.Abs(m.W[j]-w[j]) > 1e-6 {
			t.Errorf("OLS w[%d] = %v, want %v", j, m.W[j], w[j])
		}
	}
	if math.Abs(m.B-0.7) > 1e-6 {
		t.Errorf("OLS intercept = %v, want 0.7", m.B)
	}
}

func TestNegMSE(t *testing.T) {
	m := NewLinReg(1)
	m.W[0] = 1 // predicts y = x
	ds := dataset.New("d", 2, 1, 2)
	ds.X.Set(0, 0, 1)
	ds.Y[0] = 1 // error 0
	ds.X.Set(1, 0, 0)
	ds.Y[1] = 2 // error 2 → sq 4
	if got := NegMSE(m, ds); math.Abs(got+2) > 1e-12 {
		t.Errorf("NegMSE = %v, want -2", got)
	}
}

func TestAccuracyEmptySet(t *testing.T) {
	m := NewLogReg(3, 2, 1)
	if got := Accuracy(m, dataset.New("e", 0, 3, 2)); got != 0 {
		t.Errorf("Accuracy on empty = %v", got)
	}
}

// A diverged model — NaN parameters, so NaN scores — has no accuracy: the
// argmax of an all-NaN vector is class 0, which on this half-class-0 set
// would read as 0.5. Both the Classifier fast path and the Score fallback
// must say NaN.
func TestAccuracyOfDivergedModelIsNaN(t *testing.T) {
	ds := dataset.New("four", 4, 3, 2)
	for i := 0; i < 4; i++ {
		ds.X.Set(i, i%3, 1)
		ds.Y[i] = i % 2
	}
	for name, m := range map[string]Parametric{
		"logreg": NewLogReg(3, 2, 1),
		"mlp":    NewMLP(3, 4, 2, 1),
	} {
		if got := Accuracy(m, ds); math.IsNaN(got) {
			t.Fatalf("%s: a finite model scored NaN", name)
		}
		nan := make(tensor.Vector, m.NumParams())
		nan.Fill(math.NaN())
		m.SetParams(nan)
		if got := Accuracy(m, ds); !math.IsNaN(got) {
			t.Errorf("%s with NaN parameters: Accuracy = %v, want NaN", name, got)
		}
		if got := Accuracy(scoreOnly{m}, ds); !math.IsNaN(got) {
			t.Errorf("%s with NaN parameters, Score path: Accuracy = %v, want NaN", name, got)
		}
	}
}

// Params/SetParams round-trips for every parametric model.
func TestParamsRoundTrip(t *testing.T) {
	models := map[string]func() Parametric{
		"linreg": func() Parametric { return NewLinReg(5) },
		"logreg": func() Parametric { return NewLogReg(5, 3, 1) },
		"mlp":    func() Parametric { return NewMLP(5, 4, 3, 1) },
		"cnn":    func() Parametric { return NewCNN(6, 6, 2, 3, 1) },
		"deep":   func() Parametric { return NewDeepMLP([]int{5, 4, 4, 3}, 1) },
	}
	for name, mk := range models {
		t.Run(name, func(t *testing.T) {
			m := mk()
			p := m.Params()
			if len(p) != m.NumParams() {
				t.Fatalf("Params len %d != NumParams %d", len(p), m.NumParams())
			}
			// AppendParams keeps what dst holds, appends the same vector
			// Params returns, and stays in dst's storage when it fits.
			buf := make(tensor.Vector, 1, 1+len(p))
			buf[0] = -7
			ext := m.AppendParams(buf)
			if len(ext) != 1+len(p) || ext[0] != -7 || &ext[0] != &buf[0] {
				t.Fatalf("AppendParams: len %d (want %d), prefix %v, reused storage %v",
					len(ext), 1+len(p), ext[0], &ext[0] == &buf[0])
			}
			for i := range p {
				if ext[1+i] != p[i] {
					t.Fatalf("AppendParams[%d] = %v, Params[%d] = %v", 1+i, ext[1+i], i, p[i])
				}
			}
			// Perturb, restore, compare.
			q := p.Clone()
			for i := range q {
				q[i] = float64(i) * 0.01
			}
			m.SetParams(q)
			got := m.Params()
			for i := range q {
				if got[i] != q[i] {
					t.Fatalf("round trip mismatch at %d: %v != %v", i, got[i], q[i])
				}
			}
		})
	}
}

// SetParams fully determines Score: two models with the same parameters give
// identical outputs (the property FedAvg and gradient reconstruction rely
// on).
func TestParamsDetermineScore(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		a := NewMLP(6, 5, 3, seedA)
		b := NewMLP(6, 5, 3, seedB)
		b.SetParams(a.Params())
		x := tensor.Vector{0.1, -0.2, 0.3, 0.5, -0.9, 0.01}
		sa, sb := a.Score(x), b.Score(x)
		for i := range sa {
			if math.Abs(sa[i]-sb[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// widths returns m's layer widths [in, hidden..., out].
func widths(m *Dense) []int {
	w := make([]int, len(m.layers)+1)
	for l := range w {
		w[l] = m.width(l)
	}
	return w
}

// A Dense clone shares neither parameters nor scratch with its source, and
// its layers' w and b are views of its own parameter vector.
func TestCloneIsDeep(t *testing.T) {
	for _, m := range []*Dense{NewLogReg(4, 2, 1), NewMLP(4, 3, 2, 1), NewDeepMLP([]int{4, 3, 3, 2}, 1)} {
		want := m.Params()
		c := m.Clone().(*Dense)
		if !slices.Equal(c.Params(), want) {
			t.Fatalf("%v: Clone changed the parameters", widths(m))
		}
		layers := len(c.layers)
		for l := range c.layers {
			cl := &c.layers[l]
			cl.w.Data[0] += 5
			cl.b[0] += 5
			if &cl.act[0] == &m.layers[l].act[0] {
				t.Errorf("%v: Clone shares layer %d's activations", widths(m), l)
			}
		}
		if !slices.Equal(m.Params(), want) {
			t.Errorf("%v: Clone shares parameter storage", widths(m))
		}
		changed := 0
		for i, x := range c.Params() {
			if x != want[i] {
				changed++
			}
		}
		if changed != 2*layers {
			t.Errorf("%v: %d parameters moved, want one w and one b per layer (%d)", widths(m), changed, 2*layers)
		}
	}
}

func TestCNNCloneIsDeep(t *testing.T) {
	m := NewCNN(6, 6, 2, 3, 1)
	c := m.Clone().(*CNN)
	c.K.Data[0] += 5
	if m.K.Data[0] == c.K.Data[0] {
		t.Errorf("CNN Clone shares kernel storage")
	}
}

func TestScoreIsProbability(t *testing.T) {
	train, _ := trainingSet(100, 13)
	models := []Model{
		NewLogReg(train.Dim(), train.NumClasses, 1),
		NewMLP(train.Dim(), 8, train.NumClasses, 1),
		NewCNN(10, 10, 2, train.NumClasses, 1),
	}
	x := train.X.Row(0)
	for _, m := range models {
		p := m.Score(x)
		var sum float64
		for _, v := range p {
			if v < 0 || v > 1 {
				t.Errorf("%T produced probability %v", m, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%T probabilities sum to %v", m, sum)
		}
	}
}

func TestTrainingDeterminism(t *testing.T) {
	train, _ := trainingSet(150, 17)
	run := func() tensor.Vector {
		m := NewMLP(train.Dim(), 8, train.NumClasses, 7)
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

// A label outside the model's classes (a client file with more classes than
// the test set the model was sized from) must not take the training down:
// crossEntropyGrad has no one-hot entry to subtract and carries on.
func TestTrainEpochToleratesOutOfRangeLabels(t *testing.T) {
	ds := dataset.New("stray", 4, 36, 3)
	ds.ImageW, ds.ImageH = 6, 6
	for i := range ds.X.Data {
		ds.X.Data[i] = float64(i%7) / 7
	}
	copy(ds.Y, []int{0, 3, -1, 2})
	models := map[string]Parametric{
		"logreg": NewLogReg(36, 3, 1),
		"mlp":    NewMLP(36, 4, 3, 1),
		"deep":   NewDeepMLP([]int{36, 4, 4, 3}, 1),
		"cnn":    NewCNN(6, 6, 2, 3, 1),
	}
	for name, m := range models {
		trainEpochs(m, ds, 2, 0.05, 1)
		for _, x := range m.Params() {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("%s: non-finite parameter after training on stray labels", name)
			}
		}
	}
}
