package fl

import (
	"math"
	"slices"
	"testing"

	"fedshap/internal/dataset"
	"fedshap/internal/model"
	"fedshap/internal/tensor"
)

func sameBits(a, b tensor.Vector) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestArenaReuseBitIdentical is the arena's contract: whatever was trained
// in it before — a larger coalition, nothing, another algorithm, a wider
// client pool, a trace run, another seed — the next training returns the
// bits a one-shot Train returns.
func TestArenaReuseBitIdentical(t *testing.T) {
	clients, _ := femClients(5, 30, 13)
	withFreeRider := append(slices.Clone(clients), clients[0].Empty("free-rider"))
	dim, w, h := clients[0].Dim(), clients[0].ImageW, clients[0].ImageH
	factories := map[string]model.Factory{
		"mlp":     mlpFactory(dim, 4),
		"deepmlp": func(seed int64) model.Model { return model.NewDeepMLP([]int{dim, 6, 5, 4}, seed) },
		"cnn":     func(seed int64) model.Model { return model.NewCNN(w, h, 3, 4, seed) },
		"logreg":  func(seed int64) model.Model { return model.NewLogReg(dim, 4, seed) },
		"linreg":  func(int64) model.Model { return model.NewLinReg(dim) },
	}
	fedavg := Config{Rounds: 2, LocalEpochs: 2, LR: 0.01, Seed: 11, WeightBySize: true}
	fedprox := Config{Algorithm: FedProx, ProxMu: 0.5, Rounds: 2, LocalEpochs: 1, LR: 0.01, Seed: 11}
	reseeded := fedavg
	reseeded.Seed = 12
	runs := []struct {
		name    string
		clients []*dataset.Dataset
		cfg     Config
	}{
		{"grand", clients, fedavg},
		{"singleton", clients[3:4], fedavg},
		{"empty", nil, fedavg},
		{"fedprox", clients[1:4], fedprox},
		{"free-rider", withFreeRider, fedavg},
		{"pair", clients[:2], fedavg},
		{"reseeded", clients[2:5], reseeded},
		{"triple", clients[:3], fedprox},
	}
	for fname, factory := range factories {
		want := make([]tensor.Vector, len(runs))
		for i, r := range runs {
			want[i] = Train(factory, r.clients, r.cfg).(model.Parametric).Params()
		}
		_, wantTrace := TrainWithTrace(factory, clients, fedavg)

		forward := make([]int, len(runs))
		for i := range forward {
			forward[i] = i
		}
		backward := slices.Clone(forward)
		slices.Reverse(backward)
		for _, order := range [][]int{forward, backward} {
			var a Arena
			for step, i := range order {
				r := runs[i]
				if got := a.Train(factory, r.clients, r.cfg).(model.Parametric).Params(); !sameBits(got, want[i]) {
					t.Fatalf("%s: %q at step %d of %v differs from a one-shot Train", fname, r.name, step, order)
				}
				if step == len(order)/2 {
					m, tr := a.train(factory, clients, fedavg, true)
					if hashTrace(tr) != hashTrace(wantTrace) {
						t.Fatalf("%s: trace recorded in a used arena differs from TrainWithTrace", fname)
					}
					if !sameBits(m.(model.Parametric).Params(), want[0]) {
						t.Fatalf("%s: trace run in a used arena trained other parameters", fname)
					}
				}
			}
		}
	}
}

// TestArenaWarmTrainingDoesNotAllocate: once an arena has seen its largest
// coalition, a serial training in it builds nothing.
func TestArenaWarmTrainingDoesNotAllocate(t *testing.T) {
	factory, clients := benchFederation()
	cfg := DefaultConfig(1)
	var a Arena
	a.Train(factory, clients, cfg)
	if avg := testing.AllocsPerRun(5, func() { a.Train(factory, clients[1:4], cfg) }); avg != 0 {
		t.Errorf("warm arena training made %v allocations, want 0", avg)
	}
}

// TestArenaLeavesFittersAlone: a Fitter is built and fitted per call, so
// two trainings through one arena return independent models.
func TestArenaLeavesFittersAlone(t *testing.T) {
	clients, test := femClients(2, 40, 17)
	factory := func(seed int64) model.Model { return model.NewXGB(4, model.DefaultXGBConfig(), seed) }
	var a Arena
	both := a.Train(factory, clients, DefaultConfig(3))
	acc := model.Accuracy(both, test)
	one := a.Train(factory, clients[:1], DefaultConfig(3))
	if one == both {
		t.Fatal("arena returned the same Fitter instance twice")
	}
	if got := model.Accuracy(both, test); got != acc {
		t.Errorf("a later training changed an earlier Fitter: accuracy %v → %v", acc, got)
	}
}
