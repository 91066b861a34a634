package model

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestConstructionAllocs bounds what building and cloning a model costs:
// FedAvg builds the global model once per training arena and clones it per
// client slot. The Dense bounds are the separate MLP and LogReg types' costs
// on go1.24/amd64, so the one layered type costs no more than they did.
// CNN.Clone copies into a fresh layout instead of re-running the seeded
// constructor; that saves the ~5 KB RNG source and the Gaussian/Xavier
// draw it overwrote (13 allocations, 10,040 B before).
func TestConstructionAllocs(t *testing.T) {
	// Keep the collector's own bookkeeping out of exact counts.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	mlp := NewMLP(100, 32, 10, 1)
	cnn := NewCNN(8, 8, 3, 10, 1)
	var sink Model
	cases := []struct {
		name              string
		f                 func()
		maxAllocs, maxLen float64
	}{
		{"NewMLP(100,32,10)", func() { sink = NewMLP(100, 32, 10, 1) }, 11, 36544},
		{"MLP.Clone", func() { sink = mlp.Clone() }, 10, 31168},
		{"NewLogReg(100,10)+Clone", func() { sink = NewLogReg(100, 10, 1).Clone() }, 11, 22368},
		{"CNN.Clone", func() { sink = cnn.Clone() }, 12, 4664},
	}
	for _, tc := range cases {
		const runs = 20
		allocs := testing.AllocsPerRun(runs, tc.f)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			tc.f()
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
		if allocs > tc.maxAllocs || bytes > tc.maxLen {
			t.Errorf("%s: %v allocations, %v B; want ≤ %v, ≤ %v B", tc.name, allocs, bytes, tc.maxAllocs, tc.maxLen)
		}
	}
	_ = sink
}
