package model

import (
	"math/rand"
	"testing"

	"fedshap/internal/dataset"
)

// Allocation benchmarks for the per-sample SGD and split-scan hot loops —
// the paths every coalition evaluation spends its time in. Run with
// -benchmem; the scratch-buffer reuse in each model should keep per-epoch
// allocations flat in the sample count.

func benchData(n, dim, classes int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := dataset.New("bench", n, dim, classes)
	for i := 0; i < n; i++ {
		row := ds.X.Row(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		ds.Y[i] = rng.Intn(classes)
	}
	return ds
}

func benchImageData(n, w, h, classes int, seed int64) *dataset.Dataset {
	ds := benchData(n, w*h, classes, seed)
	ds.ImageW, ds.ImageH = w, h
	return ds
}

func BenchmarkTrainEpoch(b *testing.B) {
	const samples = 128
	ds := benchData(samples, 24, 4, 1)
	img := benchImageData(samples, 8, 8, 4, 1)
	models := []struct {
		name string
		m    Parametric
		data *dataset.Dataset
	}{
		{"logreg", NewLogReg(24, 4, 1), ds},
		{"mlp", NewMLP(24, 16, 4, 1), ds},
		// One client of the repository's benchmark workloads.
		{"mlp-100x32x10", NewMLP(100, 32, 10, 1), benchData(120, 100, 10, 1)},
		{"deepmlp", NewDeepMLP([]int{24, 12, 8, 4}, 1), ds},
		{"cnn", NewCNN(8, 8, 4, 4, 1), img},
	}
	for _, tc := range models {
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tc.m.TrainEpoch(tc.data, 0.05, rng)
			}
		})
	}
}

func BenchmarkXGBFit(b *testing.B) {
	ds := benchData(256, 12, 3, 1)
	cfg := DefaultXGBConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := NewXGB(3, cfg, 1)
		m.Fit(ds)
	}
}

func BenchmarkAccuracy(b *testing.B) {
	ds := benchData(512, 24, 4, 1)
	mlp := NewMLP(24, 16, 4, 1)
	xgb := NewXGB(4, DefaultXGBConfig(), 1)
	xgb.Fit(benchData(128, 24, 4, 2))
	models := []struct {
		name string
		m    Model
		data *dataset.Dataset
	}{
		{"mlp", mlp, ds},
		{"xgb", xgb, ds},
		{"mlp-100x32x10", NewMLP(100, 32, 10, 1), benchData(120, 100, 10, 1)},
	}
	for _, tc := range models {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Accuracy(tc.m, tc.data)
			}
		})
	}
}
