package fl

import (
	"math"
	"math/rand"
	"testing"

	"fedshap/internal/combin"
	"fedshap/internal/dataset"
	"fedshap/internal/model"
	"fedshap/internal/tensor"
)

func femClients(n, perClient int, seed int64) ([]*dataset.Dataset, *dataset.Dataset) {
	cfg := dataset.DefaultFEMNISTLike(n, perClient, seed)
	cfg.Classes = 4
	return dataset.FEMNISTLike(cfg)
}

func mlpFactory(dim, classes int) model.Factory {
	return func(seed int64) model.Model { return model.NewMLP(dim, 8, classes, seed) }
}

func TestFedAvgLearns(t *testing.T) {
	clients, test := femClients(4, 60, 1)
	cfg := Config{Rounds: 4, LocalEpochs: 1, LR: 0.05, Seed: 7, WeightBySize: true}
	m := Train(mlpFactory(clients[0].Dim(), 4), clients, cfg)
	if acc := model.Accuracy(m, test); acc < 0.7 {
		t.Errorf("FedAvg accuracy %v, want > 0.7", acc)
	}
}

func TestFedAvgDeterminism(t *testing.T) {
	clients, _ := femClients(3, 40, 2)
	cfg := DefaultConfig(9)
	f := mlpFactory(clients[0].Dim(), 4)
	a := Train(f, clients, cfg).(model.Parametric).Params()
	b := Train(f, clients, cfg).(model.Parametric).Params()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("FedAvg non-deterministic at param %d", i)
		}
	}
}

func TestFedAvgAllEmptyReturnsInit(t *testing.T) {
	clients, _ := femClients(2, 10, 3)
	empty := []*dataset.Dataset{clients[0].Empty("a"), clients[1].Empty("b")}
	cfg := DefaultConfig(5)
	f := mlpFactory(clients[0].Dim(), 4)
	m := Train(f, empty, cfg).(model.Parametric)
	init := f(cfg.Seed).(model.Parametric)
	got, want := m.Params(), init.Params()
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("empty federation changed parameters")
		}
	}
}

func TestFedAvgSkipsEmptyClients(t *testing.T) {
	clients, test := femClients(3, 60, 4)
	withRider := []*dataset.Dataset{clients[0], clients[1].Empty("rider"), clients[2]}
	cfg := Config{Rounds: 3, LocalEpochs: 1, LR: 0.05, Seed: 7, WeightBySize: true}
	f := mlpFactory(clients[0].Dim(), 4)
	m := Train(f, withRider, cfg)
	if acc := model.Accuracy(m, test); acc < 0.5 {
		t.Errorf("FedAvg with free rider accuracy %v, want > 0.5", acc)
	}
}

func TestFitterPathTrainsOnMergedData(t *testing.T) {
	d, _ := dataset.AdultLike(dataset.DefaultAdultLike(400, 5))
	rng := rand.New(rand.NewSource(1))
	train, test := d.Split(0.8, rng)
	clients := dataset.PartitionEqualIID(train, 3, rng)
	f := func(seed int64) model.Model { return model.NewXGB(2, model.DefaultXGBConfig(), seed) }
	m := Train(f, clients, DefaultConfig(3))
	if acc := model.Accuracy(m, test); acc < 0.7 {
		t.Errorf("federated XGB accuracy %v, want > 0.7", acc)
	}
	// Fitter produces no trace.
	_, trace := TrainWithTrace(f, clients, DefaultConfig(3))
	if trace != nil {
		t.Errorf("Fitter model should yield nil trace")
	}
}

func TestTraceShape(t *testing.T) {
	clients, _ := femClients(3, 30, 6)
	cfg := Config{Rounds: 2, LocalEpochs: 1, LR: 0.05, Seed: 7, WeightBySize: true}
	_, trace := TrainWithTrace(mlpFactory(clients[0].Dim(), 4), clients, cfg)
	if trace == nil {
		t.Fatal("nil trace for parametric model")
	}
	if len(trace.Rounds) != 2 {
		t.Fatalf("trace rounds = %d, want 2", len(trace.Rounds))
	}
	if trace.NumClients != 3 {
		t.Errorf("trace clients = %d", trace.NumClients)
	}
	for r, rt := range trace.Rounds {
		if len(rt.Updates) != 3 || len(rt.Weights) != 3 {
			t.Fatalf("round %d: %d updates, %d weights", r, len(rt.Updates), len(rt.Weights))
		}
		var wsum float64
		for i, u := range rt.Updates {
			if u == nil {
				t.Fatalf("round %d client %d missing update", r, i)
			}
			wsum += rt.Weights[i]
		}
		if math.Abs(wsum-1) > 1e-9 {
			t.Errorf("round %d weights sum to %v", r, wsum)
		}
	}
}

// The full-coalition reconstruction must reproduce the actual final model
// exactly — the consistency anchor of all gradient-based baselines.
func TestReconstructFullCoalitionExact(t *testing.T) {
	clients, _ := femClients(4, 30, 8)
	cfg := Config{Rounds: 3, LocalEpochs: 1, LR: 0.05, Seed: 7, WeightBySize: true}
	f := mlpFactory(clients[0].Dim(), 4)
	final, trace := TrainWithTrace(f, clients, cfg)
	got := make(tensor.Vector, len(trace.Init))
	ReconstructFull(got, trace, combin.FullCoalition(4))
	want := final.(model.Parametric).Params()
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("full reconstruction deviates at param %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// Reconstructing the empty coalition yields the initial model.
func TestReconstructEmptyCoalition(t *testing.T) {
	clients, _ := femClients(3, 20, 9)
	cfg := DefaultConfig(7)
	f := mlpFactory(clients[0].Dim(), 4)
	_, trace := TrainWithTrace(f, clients, cfg)
	got := make(tensor.Vector, len(trace.Init))
	ReconstructFull(got, trace, combin.Empty)
	for i := range got {
		if got[i] != trace.Init[i] {
			t.Fatalf("empty reconstruction differs from init at %d", i)
		}
	}
}

// Round reconstruction of the full coalition equals the next round's global
// parameters.
func TestReconstructRoundConsistency(t *testing.T) {
	clients, _ := femClients(3, 30, 10)
	cfg := Config{Rounds: 3, LocalEpochs: 1, LR: 0.05, Seed: 7, WeightBySize: true}
	f := mlpFactory(clients[0].Dim(), 4)
	_, trace := TrainWithTrace(f, clients, cfg)
	got := make(tensor.Vector, len(trace.Init))
	for r := 0; r < len(trace.Rounds)-1; r++ {
		ReconstructRound(got, trace, r, combin.FullCoalition(3))
		want := trace.Rounds[r+1].Global
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("round %d reconstruction deviates at param %d", r, i)
			}
		}
	}
}

func TestAggregationWeights(t *testing.T) {
	a := dataset.New("a", 10, 2, 2)
	b := dataset.New("b", 30, 2, 2)
	empty := dataset.New("e", 0, 2, 2)
	w := aggregationWeights(nil, []*dataset.Dataset{a, b, empty}, true)
	if math.Abs(w[0]-0.25) > 1e-12 || math.Abs(w[1]-0.75) > 1e-12 || w[2] != 0 {
		t.Errorf("weights = %v", w)
	}
	weq := aggregationWeights(nil, []*dataset.Dataset{a, b, empty}, false)
	if math.Abs(weq[0]-0.5) > 1e-12 || math.Abs(weq[1]-0.5) > 1e-12 {
		t.Errorf("equal weights = %v", weq)
	}
}

func TestFedProxShrinksUpdates(t *testing.T) {
	clients, _ := femClients(3, 40, 31)
	f := mlpFactory(clients[0].Dim(), 4)
	base := Config{Rounds: 1, LocalEpochs: 1, LR: 0.05, Seed: 7, WeightBySize: true}
	prox := base
	prox.Algorithm = FedProx
	prox.ProxMu = 1.0 // shrink factor 1/2

	init := f(base.Seed).(model.Parametric).Params()
	avg := Train(f, clients, base).(model.Parametric).Params()
	px := Train(f, clients, prox).(model.Parametric).Params()

	// After one round, the FedProx displacement from init must be exactly
	// half the FedAvg displacement (closed-form proximal step).
	for i := range init {
		dAvg := avg[i] - init[i]
		dProx := px[i] - init[i]
		if math.Abs(dProx-dAvg/2) > 1e-9 {
			t.Fatalf("param %d: prox delta %v, want %v", i, dProx, dAvg/2)
		}
	}
}

func TestFedProxZeroMuIsFedAvg(t *testing.T) {
	clients, _ := femClients(2, 20, 33)
	f := mlpFactory(clients[0].Dim(), 4)
	base := Config{Rounds: 2, LocalEpochs: 1, LR: 0.05, Seed: 3, WeightBySize: true}
	prox := base
	prox.Algorithm = FedProx // ProxMu = 0 → no shrink
	a := Train(f, clients, base).(model.Parametric).Params()
	b := Train(f, clients, prox).(model.Parametric).Params()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("FedProx(mu=0) deviates from FedAvg at %d", i)
		}
	}
}

func TestAlgorithmString(t *testing.T) {
	if FedAvg.String() != "FedAvg" || FedProx.String() != "FedProx" {
		t.Errorf("algorithm names wrong")
	}
	if Algorithm(99).String() == "" {
		t.Errorf("unknown algorithm should still print")
	}
}

func TestMultipleLocalEpochs(t *testing.T) {
	clients, test := femClients(3, 40, 35)
	f := mlpFactory(clients[0].Dim(), 4)
	one := Config{Rounds: 2, LocalEpochs: 1, LR: 0.05, Seed: 7, WeightBySize: true}
	three := one
	three.LocalEpochs = 3
	accOne := model.Accuracy(Train(f, clients, one), test)
	accThree := model.Accuracy(Train(f, clients, three), test)
	// More local work should not collapse accuracy (and typically helps).
	if accThree < accOne-0.2 {
		t.Errorf("3 local epochs (%v) far below 1 epoch (%v)", accThree, accOne)
	}
}
