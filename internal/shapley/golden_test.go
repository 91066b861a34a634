package shapley

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"fedshap/internal/combin"
	"fedshap/internal/utility"
)

// The parallel-determinism suite and the benchmark's bit-for-bit check
// compare serial with parallel inside one build, so a change that shifted
// an RNG stream on both paths at once would pass them. These hashes were
// recorded at the commit before the samplers' Go maps became flat
// combin.Sets and the draw primitives stopped allocating; any change that
// consumes the RNG differently, reorders a plan or reassociates a sum turns
// them red.
//
// Each row is one sampler at one game size, folded over seeds 1..3: values
// is FNV-64a over the little-endian math.Float64bits of shapley.Run's
// output on a fresh oracle, plan the same hash over the (lo, hi) words of
// PlanFor's sequence.
var goldenSamplers = []struct {
	name         string
	alg          func(gamma, kstar int) Valuer
	values, plan [2]uint64 // [0]: n=24, γ=6000; [1]: n=10, γ=32
}{
	{"ipss", func(g, _ int) Valuer { return NewIPSS(g) },
		[2]uint64{0x46e470b1dbd216de, 0x8a32a1b5a78b17a4}, [2]uint64{0x62905a2d89d486cb, 0x3c2bdd45dfb670cf}},
	{"cc-shapley", func(g, _ int) Valuer { return NewCCShapley(g) },
		[2]uint64{0xe0409425f5448f34, 0x9882e002ceb26127}, [2]uint64{0x7ab29d30dfb88c21, 0x98839484ac57553d}},
	{"perm-mc", func(g, _ int) Valuer { return NewPermSampling(g) },
		[2]uint64{0x11618c5dd63e0584, 0x7b363fac7b5b9eb1}, [2]uint64{0xe0cdd6354bf95942, 0x668da1437cd70c58}},
	{"extended-gtb", func(g, _ int) Valuer { return NewGTB(g) },
		[2]uint64{0x12c82a811b2698ae, 0x0796d74a3de86949}, [2]uint64{0x0cc9da58f63b8252, 0x6964c31b0f3db58c}},
	{"mc-banzhaf", func(g, _ int) Valuer { return NewMCBanzhaf(g) },
		[2]uint64{0x716a05fdd91e1ca1, 0xbd5e2d0a31ca2445}, [2]uint64{0xd8095a9f445169e2, 0xa460d063bbe3f6e4}},
	{"extended-tmc", func(g, _ int) Valuer { return NewTMC(g) },
		[2]uint64{0xc2f08c420af2543f, 0xde6f5e8101686ac9}, [2]uint64{0xd67ec533287f91a5, 0x59038ed8e4fe2d4e}},
	{"stratified-neyman", func(g, _ int) Valuer { return NewStratifiedNeyman(g) },
		[2]uint64{0xf25083a6ca0d75c2, 0x06a922f03afac11c}, [2]uint64{0xb33087192c614fe6, 0x840eb555c98dd51d}},
	{"stratified-mc", func(g, _ int) Valuer { return NewStratified(MC, g) },
		[2]uint64{0x1106837b292d5ceb, 0x2396d4b03f514127}, [2]uint64{0xc568eb02c91acf76, 0x2eb642baf710dfb8}},
	{"stratified-cc", func(g, _ int) Valuer { return NewStratified(CC, g) },
		[2]uint64{0x17f7b3a92ebcdb5c, 0x3554ec0579813723}, [2]uint64{0xc568eb02c91acf76, 0x2eb642baf710dfb8}},
	{"k-greedy", func(_, kstar int) Valuer { return &KGreedy{K: kstar} },
		[2]uint64{0xab655b5e347073e3, 0x7ff48212b8e711d1}, [2]uint64{0x4e8782dba298109c, 0xd9f14b05da2b8733}},
}

var goldenSizes = [2]struct{ n, gamma int }{{24, 6000}, {10, 32}}

// goldenGame is v(S) = (Σ_{i∈S} wᵢ)² with weights drawn from the seed — the
// benchmark's sampler-free game, whose marginals grow with |S| so every
// stratum contributes distinct bits.
func goldenGame(n int, seed int64) utility.EvalFunc {
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, n)
	for i := range w {
		w[i] = 0.5 + rng.Float64()
	}
	return func(s combin.Coalition) float64 {
		t := 0.0
		for i := 0; i < n; i++ {
			if s.Has(i) {
				t += w[i]
			}
		}
		return t * t
	}
}

func TestGoldenSamplers(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes were recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	var b [8]byte
	for _, g := range goldenSamplers {
		for si, size := range goldenSizes {
			n, gamma := size.n, size.gamma
			alg := g.alg(gamma, NewIPSS(gamma).KStar(n))
			hv, hp, hpipe := fnv.New64a(), fnv.New64a(), fnv.New64a()
			for seed := int64(1); seed <= 3; seed++ {
				eval := goldenGame(n, 1000+seed)
				values, err := Run(NewContext(utility.NewOracle(n, eval), seed), alg)
				if err != nil {
					t.Fatalf("%s n=%d seed=%d: %v", g.name, n, seed, err)
				}
				for _, x := range values {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
					hv.Write(b[:])
				}

				// The plan → prefetch → reduce pipeline of ValueParallel
				// must land on the same bits as the serial run.
				plan, _ := PlanFor(alg, n, seed)
				for _, s := range plan {
					lo, hi := s.Words()
					binary.LittleEndian.PutUint64(b[:], lo)
					hp.Write(b[:])
					binary.LittleEndian.PutUint64(b[:], hi)
					hp.Write(b[:])
				}
				o := utility.NewOracle(n, eval)
				if err := o.Prefetch(context.Background(), plan, 2); err != nil {
					t.Fatalf("%s n=%d seed=%d: prefetch: %v", g.name, n, seed, err)
				}
				piped, err := Run(NewContext(utility.NewRunView(o), seed), alg)
				if err != nil {
					t.Fatalf("%s n=%d seed=%d: pipeline: %v", g.name, n, seed, err)
				}
				for _, x := range piped {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
					hpipe.Write(b[:])
				}
			}
			if got := hv.Sum64(); got != g.values[si] {
				t.Errorf("%s n=%d γ=%d: values hash %#016x, want %#016x", g.name, n, gamma, got, g.values[si])
			}
			if got := hpipe.Sum64(); got != g.values[si] {
				t.Errorf("%s n=%d γ=%d: pipeline values hash %#016x, want %#016x", g.name, n, gamma, got, g.values[si])
			}
			if got := hp.Sum64(); got != g.plan[si] {
				t.Errorf("%s n=%d γ=%d: plan hash %#016x, want %#016x", g.name, n, gamma, got, g.plan[si])
			}
		}
	}
}
