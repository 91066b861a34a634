package fl

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"fedshap/internal/dataset"
	"fedshap/internal/model"
	"fedshap/internal/tensor"
)

// The parallel-determinism suite compares serial with parallel inside one
// build, so a kernel change that moved every trained value at once would
// pass it. These hashes were recorded at the commit before the tensor
// kernels were register-blocked; any change that reassociates a sum, reorders
// an update or shifts an RNG stream turns them red.
//
// Each constant is FNV-64a over the little-endian math.Float64bits of the
// trained flat parameter vector.
var goldenParams = map[string]uint64{
	"mlp/fedavg":      0xcddc08434f47a650,
	"mlp/fedprox":     0x10d8cf9bdece6c59,
	"logreg/fedavg":   0xb5c5804615857d2c,
	"logreg/fedprox":  0x367d21faa3aa5947,
	"deepmlp/fedavg":  0xa3783b12fe95a781,
	"deepmlp/fedprox": 0x0e72c41d23a0b1e4,
	"cnn/fedavg":      0xad1ddaaff4f36e7a,
	"cnn/fedprox":     0x4d0be1073038388e,
}

// goldenTrace hashes Init, then per round Global, every non-nil update in
// client order, and the weights, of one MLP TrainWithTrace run.
const goldenTrace uint64 = 0x51624ab4de2ad6a0

func hashFloats(h hash.Hash64, v []float64) {
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

func hashVector(v tensor.Vector) uint64 {
	h := fnv.New64a()
	hashFloats(h, v)
	return h.Sum64()
}

// hashTrace hashes a trace in goldenTrace's order.
func hashTrace(tr *Trace) uint64 {
	h := fnv.New64a()
	hashFloats(h, tr.Init)
	for _, rt := range tr.Rounds {
		hashFloats(h, rt.Global)
		for _, u := range rt.Updates {
			hashFloats(h, u)
		}
		hashFloats(h, rt.Weights)
	}
	return h.Sum64()
}

// goldenFederation is the fixed problem every golden hash is trained on: 6
// FEMNIST-like writers × 40 samples (10×10 images, 10 classes) plus one
// free-rider, so the skip-empty-client path is inside the hash too.
func goldenFederation() []*dataset.Dataset {
	clients, _ := dataset.FEMNISTLike(dataset.DefaultFEMNISTLike(6, 40, 20240914))
	return append(clients, clients[0].Empty("free-rider"))
}

func goldenFactories(d *dataset.Dataset) map[string]model.Factory {
	dim, classes := d.Dim(), d.NumClasses
	return map[string]model.Factory{
		"mlp":     func(seed int64) model.Model { return model.NewMLP(dim, 32, classes, seed) },
		"logreg":  func(seed int64) model.Model { return model.NewLogReg(dim, classes, seed) },
		"deepmlp": func(seed int64) model.Model { return model.NewDeepMLP([]int{dim, 17, 9, classes}, seed) },
		"cnn":     func(seed int64) model.Model { return model.NewCNN(d.ImageW, d.ImageH, 3, classes, seed) },
	}
}

var goldenConfigs = map[string]Config{
	"fedavg":  {Rounds: 3, LocalEpochs: 2, LR: 0.05, Seed: 31, WeightBySize: true},
	"fedprox": {Algorithm: FedProx, ProxMu: 0.5, Rounds: 2, LocalEpochs: 1, LR: 0.1, Seed: 47},
}

// skipUnlessGoldenArch: the Go compiler may fuse x*y+z into one rounding on
// arm64, ppc64le, s390x and riscv64, so trained bits are only comparable
// across commits on an architecture where it never does.
func skipUnlessGoldenArch(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes were recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
}

func TestGoldenTrainedParams(t *testing.T) {
	skipUnlessGoldenArch(t)
	clients := goldenFederation()
	for mname, factory := range goldenFactories(clients[0]) {
		for cname, cfg := range goldenConfigs {
			name := mname + "/" + cname
			got := hashVector(Train(factory, clients, cfg).(model.Parametric).Params())
			if want := goldenParams[name]; got != want {
				t.Errorf("%s: params hash %#016x, want %#016x", name, got, want)
			}
		}
	}
}

func TestGoldenTrace(t *testing.T) {
	skipUnlessGoldenArch(t)
	clients := goldenFederation()
	factory := goldenFactories(clients[0])["mlp"]
	m, trace := TrainWithTrace(factory, clients, goldenConfigs["fedavg"])
	if got := hashTrace(trace); got != goldenTrace {
		t.Errorf("trace hash %#016x, want %#016x", got, goldenTrace)
	}
	// Recording the trace must not change what is trained.
	if got, want := hashVector(m.(model.Parametric).Params()), goldenParams["mlp/fedavg"]; got != want {
		t.Errorf("TrainWithTrace params hash %#016x, want %#016x", got, want)
	}
}
