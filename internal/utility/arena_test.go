package utility

import (
	"context"
	"math"
	"testing"

	"fedshap/internal/combin"
	"fedshap/internal/dataset"
	"fedshap/internal/fl"
	"fedshap/internal/model"
)

// arenaSpec is a six-client federation small enough to train all 64
// coalitions in a test. Its metric is the mean probability given to the
// true class: unlike accuracy it moves with every parameter bit, so equal
// utilities mean equal trained models.
func arenaSpec(factory func(dim, classes int, seed int64) model.Model) FLSpec {
	cfg := dataset.DefaultFEMNISTLike(6, 20, 29)
	cfg.Classes = 4
	clients, test := dataset.FEMNISTLike(cfg)
	return FLSpec{
		Factory: func(seed int64) model.Model { return factory(clients[0].Dim(), 4, seed) },
		Clients: clients,
		Test:    test,
		Config:  fl.Config{Rounds: 2, LocalEpochs: 1, LR: 0.05, Seed: 7, WeightBySize: true},
		Metric: func(m model.Model, test *dataset.Dataset) float64 {
			var sum float64
			for i := 0; i < test.Len(); i++ {
				sum += m.Score(test.X.Row(i))[test.Y[i]]
			}
			return sum / float64(test.Len())
		},
	}
}

// oneShot is the evaluation without any reuse: a fresh model, a fresh
// training, the spec's metric.
func oneShot(spec FLSpec, s combin.Coalition) float64 {
	var subset []*dataset.Dataset
	for _, i := range s.Members() {
		subset = append(subset, spec.Clients[i])
	}
	return spec.Metric(fl.Train(spec.Factory, subset, spec.Config), spec.Test)
}

func newMLP(dim, classes int, seed int64) model.Model    { return model.NewMLP(dim, 8, classes, seed) }
func newLogReg(dim, classes int, seed int64) model.Model { return model.NewLogReg(dim, classes, seed) }

// TestFLEvaluatorWarmAllocations: on a warm evaluator a coalition's
// training and scoring build nothing new — the model, the RNGs and every
// vector come out of the arena (≈ 38 objects per evaluation before it).
func TestFLEvaluatorWarmAllocations(t *testing.T) {
	for name, factory := range map[string]func(int, int, int64) model.Model{"mlp": newMLP, "logreg": newLogReg} {
		spec := arenaSpec(factory)
		spec.Metric = model.Accuracy
		e := &flEvaluator{spec: spec}
		e.eval(combin.FullCoalition(len(spec.Clients)))
		var sink float64
		avg := testing.AllocsPerRun(10, func() {
			sink += e.eval(combin.NewCoalition(1, 4)) + e.eval(combin.Empty) + e.eval(combin.NewCoalition(0, 2, 3, 5))
		})
		if avg > 3*4 {
			t.Errorf("%s: %v allocations per 3 warm evaluations, want at most 4 each", name, avg)
		}
	}
}

// TestFLEvaluatorPoolMatchesSerial: eight pool goroutines sharing one FL
// oracle return the bits the serial path returns, and between them never
// hold more than eight arenas, also when a second cold oracle reuses the
// evaluator's arenas.
func TestFLEvaluatorPoolMatchesSerial(t *testing.T) {
	spec := arenaSpec(newMLP)
	n := len(spec.Clients)
	var all []combin.Coalition
	combin.AllSubsets(n, func(s combin.Coalition) { all = append(all, s) })

	const workers = 8
	e := &flEvaluator{spec: spec}
	var pooled *Oracle
	for pass := 0; pass < 2; pass++ {
		pooled = NewOracle(n, e.eval)
		if err := pooled.Prefetch(context.Background(), all, workers); err != nil {
			t.Fatal(err)
		}
		if got := len(e.free); got == 0 || got > workers {
			t.Fatalf("pass %d: free list holds %d arenas after a %d-worker pool", pass, got, workers)
		}
	}
	serial := NewFLOracle(spec)
	for _, s := range all {
		want := oneShot(spec, s)
		if got := pooled.U(s); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("coalition %v: pooled %v, one-shot %v", s, got, want)
		}
		if got := serial.U(s); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("coalition %v: serial %v, one-shot %v", s, got, want)
		}
	}
}

// TestFLEvaluatorDropsArenaOnPanic: the arena an evaluation held when its
// Metric panicked is not handed to anyone else, and what the oracle
// evaluates afterwards is unaffected.
func TestFLEvaluatorDropsArenaOnPanic(t *testing.T) {
	spec := arenaSpec(newLogReg)
	score, explode := spec.Metric, false
	spec.Metric = func(m model.Model, test *dataset.Dataset) float64 {
		if explode {
			panic("metric exploded")
		}
		return score(m, test)
	}
	e := &flEvaluator{spec: spec}
	o := NewOracle(len(spec.Clients), e.eval)
	o.U(combin.NewCoalition(0, 1, 2))
	if len(e.free) != 1 {
		t.Fatalf("free list holds %d arenas after one evaluation, want 1", len(e.free))
	}

	explode = true
	func() {
		defer func() {
			if r := recover(); r != "metric exploded" {
				t.Errorf("recovered %v, want the metric's panic", r)
			}
		}()
		o.U(combin.NewCoalition(3, 4))
	}()
	explode = false
	if len(e.free) != 0 {
		t.Fatalf("free list holds %d arenas after a panicking evaluation, want 0", len(e.free))
	}

	for _, s := range []combin.Coalition{combin.NewCoalition(3, 4), combin.Empty, combin.NewCoalition(5), combin.FullCoalition(6)} {
		if got, want := o.U(s), oneShot(spec, s); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("coalition %v after the panic: %v, one-shot %v", s, got, want)
		}
	}
}
