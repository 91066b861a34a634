package fl

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"testing"

	"fedshap/internal/dataset"
	"fedshap/internal/model"
)

// benchFederation is five 120-sample FEMNIST-like clients and the MLP
// (100 → 32 → 10) the repository's benchmark workloads train.
func benchFederation() (model.Factory, []*dataset.Dataset) {
	clients, _ := dataset.FEMNISTLike(dataset.DefaultFEMNISTLike(5, 120, 1))
	dim, classes := clients[0].Dim(), clients[0].NumClasses
	return func(seed int64) model.Model { return model.NewMLP(dim, 32, classes, seed) }, clients
}

// BenchmarkFedAvg is one coalition training at the default three rounds;
// run with -benchmem to see what a round costs beyond its epochs.
func BenchmarkFedAvg(b *testing.B) {
	factory, clients := benchFederation()
	cfg := DefaultConfig(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Train(factory, clients, cfg)
	}
}

// TestFedAvgRoundsDoNotAllocate pins the buffer reuse: everything a
// training allocates is set up before the first round (model, pool slot,
// one delta per participant, one aggregate), so doubling the rounds adds
// no object.
func TestFedAvgRoundsDoNotAllocate(t *testing.T) {
	factory, clients := benchFederation()
	// AllocsPerRun counts the whole process, so keep the collector's own
	// bookkeeping objects out of a comparison that must be exact.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(rounds int) float64 {
		cfg := DefaultConfig(1)
		cfg.Rounds = rounds
		return testing.AllocsPerRun(5, func() { Train(factory, clients, cfg) })
	}
	if three, six := allocs(3), allocs(6); three != six {
		t.Errorf("allocations grow with rounds: %v objects at 3 rounds, %v at 6", three, six)
	}
}

// BenchmarkReseed is what a client's shuffle costs the RNG: one Seed and
// the Intn draws of a permutation of n samples (combin.PermInto's), on the
// arena's source and on math/rand's own.
func BenchmarkReseed(b *testing.B) {
	sources := []struct {
		name string
		new  func() rand.Source
	}{
		{"seq", func() rand.Source { return new(seqSource) }},
		{"math-rand", func() rand.Source { return rand.NewSource(0) }},
	}
	for _, src := range sources {
		for _, n := range []int{30, 120, 600} {
			b.Run(fmt.Sprintf("source=%s/n=%d", src.name, n), func(b *testing.B) {
				r := rand.New(src.new())
				perm := make([]int, n)
				b.ResetTimer()
				for k := 0; k < b.N; k++ {
					r.Seed(int64(k) * 9176)
					for i := range perm {
						j := r.Intn(i + 1)
						perm[i] = perm[j]
						perm[j] = i
					}
				}
			})
		}
	}
}
