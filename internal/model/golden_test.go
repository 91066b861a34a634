package model

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"fedshap/internal/tensor"
)

// goldenDense pins the dense network's shapes to the bits the separate
// MLP, LogReg and DeepMLP implementations produced before they became one
// type. params is FNV-64a over the little-endian math.Float64bits of the
// parameter vector after three TrainEpochs on goldenSet; score is the same
// hash of Score(goldenInput()). The training set carries labels outside the
// model's classes, so crossEntropyGrad's stray-label path is inside the hash.
var goldenDense = map[string]struct{ params, score uint64 }{
	"logreg":   {0xa5a894a6858cf501, 0x162d889ad516559d},
	"mlp":      {0x675289f78fd26fc7, 0x24c17a74e8dd64b9},
	"deepmlp1": {0x675289f78fd26fc7, 0x24c17a74e8dd64b9},
	"deepmlp2": {0xc7cdba7f7dec6b16, 0x72d09ed7607a951a},
}

func goldenDenseModels() map[string]Parametric {
	return map[string]Parametric{
		"logreg":   NewLogReg(12, 4, 3),
		"mlp":      NewMLP(12, 7, 4, 3),
		"deepmlp1": NewDeepMLP([]int{12, 7, 4}, 3),
		"deepmlp2": NewDeepMLP([]int{12, 9, 6, 4}, 3),
	}
}

func goldenInput() tensor.Vector {
	x := tensor.NewVector(12)
	for j := range x {
		x[j] = float64(j%5)/5 - 0.3
	}
	return x
}

func hashBits(v tensor.Vector) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return h.Sum64()
}

func TestDenseGolden(t *testing.T) {
	ds := benchData(60, 12, 4, 31)
	ds.Y[5], ds.Y[9] = 4, -1
	for name, m := range goldenDenseModels() {
		trainEpochs(m, ds, 3, 0.05, 11)
		got := goldenDense[name]
		params, score := hashBits(m.Params()), hashBits(m.Score(goldenInput()))
		if params != got.params || score != got.score {
			t.Errorf("%s: params %#016x score %#016x, want %#016x %#016x",
				name, params, score, got.params, got.score)
		}
	}
}
