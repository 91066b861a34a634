package utility

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"fedshap/internal/combin"
	"fedshap/internal/dataset"
	"fedshap/internal/fl"
	"fedshap/internal/model"
)

func TestOracleCachesAndCounts(t *testing.T) {
	calls := 0
	o := NewOracle(3, func(s combin.Coalition) float64 {
		calls++
		return float64(s.Size())
	})
	s := combin.NewCoalition(0, 2)
	if got := o.U(s); got != 2 {
		t.Errorf("U = %v", got)
	}
	if got := o.U(s); got != 2 {
		t.Errorf("cached U = %v", got)
	}
	if calls != 1 {
		t.Errorf("eval function called %d times, want 1", calls)
	}
	if o.Evals() != 1 {
		t.Errorf("Evals = %d, want 1", o.Evals())
	}
	o.U(combin.Empty)
	if o.Evals() != 2 {
		t.Errorf("Evals = %d, want 2", o.Evals())
	}
	if !o.Cached(s) || o.Cached(combin.NewCoalition(1)) {
		t.Errorf("Cached misreports")
	}
}

func TestOracleConcurrentAccess(t *testing.T) {
	o := NewOracle(4, func(s combin.Coalition) float64 { return float64(s.Index()) })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			combin.AllSubsets(4, func(s combin.Coalition) { o.U(s) })
		}()
	}
	wg.Wait()
	if o.Evals() != 16 {
		t.Errorf("concurrent Evals = %d, want 16", o.Evals())
	}
}

func TestTableOracle(t *testing.T) {
	table := map[combin.Coalition]float64{
		combin.Empty:            0.1,
		combin.NewCoalition(0):  0.5,
		combin.FullCoalition(1): 0.5,
	}
	o := TableOracle(1, table)
	if got := o.U(combin.Empty); got != 0.1 {
		t.Errorf("table lookup = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("missing coalition should panic")
		}
	}()
	o.U(combin.NewCoalition(0, 5))
}

func TestFLOracleMonotoneOnAverage(t *testing.T) {
	// More clients should (in aggregate) give at least as good utility —
	// the monotonicity the paper's observations build on. We check the
	// grand coalition beats the average singleton.
	cfg := dataset.DefaultFEMNISTLike(3, 50, 21)
	cfg.Classes = 4
	clients, test := dataset.FEMNISTLike(cfg)
	spec := FLSpec{
		Factory: func(seed int64) model.Model { return model.NewLogReg(clients[0].Dim(), 4, seed) },
		Clients: clients,
		Test:    test,
		Config:  fl.Config{Rounds: 2, LocalEpochs: 1, LR: 0.05, Seed: 7, WeightBySize: true},
	}
	o := NewFLOracle(spec)
	full := o.U(combin.FullCoalition(3))
	var singles float64
	for i := 0; i < 3; i++ {
		singles += o.U(combin.NewCoalition(i))
	}
	singles /= 3
	if full < singles {
		t.Errorf("grand coalition %v below average singleton %v", full, singles)
	}
}

func TestFLOracleEmptyCoalition(t *testing.T) {
	cfg := dataset.DefaultFEMNISTLike(2, 20, 22)
	cfg.Classes = 4
	clients, test := dataset.FEMNISTLike(cfg)
	spec := FLSpec{
		Factory: func(seed int64) model.Model { return model.NewLogReg(clients[0].Dim(), 4, seed) },
		Clients: clients,
		Test:    test,
		Config:  fl.DefaultConfig(7),
	}
	o := NewFLOracle(spec)
	u := o.U(combin.Empty)
	// The untrained model should be near chance (1/4) on a 4-class task.
	if u < 0 || u > 0.6 {
		t.Errorf("empty-coalition utility %v looks wrong for untrained model", u)
	}
}

// TestFLOracleDivergedTrainingFailsPrefetch: a learning rate that drives
// every trained model to NaN parameters gives every non-empty coalition a
// NaN accuracy, so the pool stops with *NonFiniteError instead of caching
// the class-0 share of the test set as those coalitions' utility.
func TestFLOracleDivergedTrainingFailsPrefetch(t *testing.T) {
	cfg := dataset.DefaultFEMNISTLike(3, 20, 23)
	cfg.Classes = 4
	clients, test := dataset.FEMNISTLike(cfg)
	spec := FLSpec{
		Factory: func(seed int64) model.Model { return model.NewMLP(clients[0].Dim(), 8, 4, seed) },
		Clients: clients,
		Test:    test,
		Config:  fl.Config{Rounds: 1, LocalEpochs: 1, LR: 1e300, Seed: 7},
	}
	var all []combin.Coalition
	combin.AllSubsets(3, func(s combin.Coalition) { all = append(all, s) })
	for _, workers := range []int{1, 2} {
		o := NewFLOracle(spec)
		err := o.Prefetch(context.Background(), all, workers)
		var nf *NonFiniteError
		if !errors.As(err, &nf) || nf.Coalition == combin.Empty || !math.IsNaN(nf.Value) {
			t.Fatalf("workers=%d: Prefetch = %v, want a *NonFiniteError with a NaN value for a non-empty coalition", workers, err)
		}
		if o.Cached(nf.Coalition) {
			t.Errorf("workers=%d: the diverged coalition %s was cached", workers, nf.Coalition)
		}
	}
}

func TestSnapshot(t *testing.T) {
	o := NewOracle(2, func(s combin.Coalition) float64 { return float64(s.Size()) })
	o.U(combin.Empty)
	o.U(combin.NewCoalition(1))
	snap := o.Snapshot()
	if len(snap) != 2 {
		t.Errorf("snapshot size = %d", len(snap))
	}
	if snap[combin.NewCoalition(1)] != 1 {
		t.Errorf("snapshot content wrong")
	}
}

func TestOnFresh(t *testing.T) {
	o := NewOracle(3, func(s combin.Coalition) float64 { return float64(s.Size()) })
	var mu sync.Mutex
	got := make(map[combin.Coalition]float64)
	var order []string
	o.OnFresh(func(s combin.Coalition, u float64, total int) {
		mu.Lock()
		got[s] = u
		order = append(order, fmt.Sprintf("first:%d", total))
		mu.Unlock()
	})
	o.OnFresh(func(_ combin.Coalition, _ float64, total int) {
		mu.Lock()
		order = append(order, fmt.Sprintf("second:%d", total))
		mu.Unlock()
	})
	// Warmed entries must not fire the hooks — only fresh evaluations carry
	// new information for an anytime consumer.
	o.Warm(map[combin.Coalition]float64{combin.Empty: 0})
	a := combin.NewCoalition(0)
	b := combin.NewCoalition(0, 1)
	o.U(a)
	o.U(b)
	o.U(a) // cached: no second call
	o.U(combin.Empty)
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 || got[a] != 1 || got[b] != 2 {
		t.Fatalf("hook saw %v, want exactly {%v: 1, %v: 2}", got, a, b)
	}
	// Hooks fire in registration order with the running fresh total.
	if want := []string{"first:1", "second:1", "first:2", "second:2"}; !slices.Equal(order, want) {
		t.Fatalf("hook calls %v, want %v", order, want)
	}
}
