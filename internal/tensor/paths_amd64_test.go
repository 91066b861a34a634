package tensor_test

import (
	"math"
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
