package theory

import (
	"math"
	"testing"
)

func TestPlanKStarMeetsTarget(t *testing.T) {
	n, tt, dim := 10, 500, 8
	for _, eps := range []float64{0.1, 0.01, 0.001} {
		k := PlanKStar(n, tt, dim, eps)
		if k < n {
			if b := TheoremThreeBound(n, tt, dim, k); b > eps {
				t.Errorf("eps=%v: k*=%d bound %v exceeds target", eps, k, b)
			}
		}
		// Minimality: k*-1 must miss the target (when k* > 1).
		if k > 1 && k <= n {
			if b := TheoremThreeBound(n, tt, dim, k-1); b <= eps {
				t.Errorf("eps=%v: k*-1=%d already meets target (%v)", eps, k-1, b)
			}
		}
	}
}

func TestPlanKStarMonotoneInEps(t *testing.T) {
	n, tt, dim := 12, 300, 6
	prev := 0
	for _, eps := range []float64{0.5, 0.1, 0.01, 0.001, 0.0001} {
		k := PlanKStar(n, tt, dim, eps)
		if k < prev {
			t.Errorf("tighter eps=%v got smaller k*=%d (prev %d)", eps, k, prev)
		}
		prev = k
	}
}

func TestPlanGamma(t *testing.T) {
	n, tt, dim := 10, 500, 8
	gamma := PlanGamma(n, tt, dim, 0.01)
	if gamma == 0 || gamma > 1<<10 {
		t.Errorf("gamma = %d out of range", gamma)
	}
	// Impossible target saturates at 2^n.
	if g := PlanGamma(4, 5, 3, 0); g != 16 {
		t.Errorf("impossible target gamma = %d, want 16", g)
	}
}

// TestGammaForN pins the paper's budget policy: Table III at n = 3, 6, 10,
// the Fig. 9 rule ⌈n·ln n⌉ elsewhere, and a floor of 2 for degenerate n.
func TestGammaForN(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{1, 2}, {2, 2}, {3, 5}, {6, 8}, {10, 32}, {24, 77}, {100, 461},
	} {
		if got := GammaForN(c.n); got != c.want {
			t.Errorf("GammaForN(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	if got := GammaForN(20); got != int(math.Ceil(20*math.Log(20))) {
		t.Errorf("GammaForN(20) = %d, want ⌈20·ln 20⌉", got)
	}
}

func TestSpeedupOverExact(t *testing.T) {
	// n=10, γ=32: 1024/32 = 32× fewer evaluations — the paper's "99%
	// reduction vs MC-Shapley" at ten clients.
	if got := SpeedupOverExact(10, 32); math.Abs(got-32) > 1e-12 {
		t.Errorf("speedup = %v, want 32", got)
	}
	if !math.IsInf(SpeedupOverExact(5, 0), 1) {
		t.Errorf("zero budget should give infinite speedup")
	}
}
