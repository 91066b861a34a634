package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestL2RelativeError(t *testing.T) {
	exact := []float64{3, 4}
	if got := L2RelativeError(exact, exact); got != 0 {
		t.Errorf("identical vectors: %v", got)
	}
	approx := []float64{3, 4 + 5}
	// ‖(0,5)‖ / ‖(3,4)‖ = 1
	if got := L2RelativeError(approx, exact); math.Abs(got-1) > 1e-12 {
		t.Errorf("error = %v, want 1", got)
	}
	// Zero ground truth: absolute norm.
	if got := L2RelativeError([]float64{3, 4}, []float64{0, 0}); math.Abs(got-5) > 1e-12 {
		t.Errorf("zero-truth error = %v, want 5", got)
	}
}

func TestL2RelativeErrorScaleInvariance(t *testing.T) {
	f := func(a, b, c float64) bool {
		norm := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 1
			}
			return math.Mod(x, 100)
		}
		a, b, c = norm(a), norm(b), norm(c)
		exact := []float64{a + 1, b + 2, c + 3}
		approx := []float64{a + 1.1, b + 1.9, c + 3.2}
		e1 := L2RelativeError(approx, exact)
		// Scaling both by 10 preserves the relative error.
		scale := func(xs []float64) []float64 {
			out := make([]float64, len(xs))
			for i, x := range xs {
				out[i] = 10 * x
			}
			return out
		}
		e2 := L2RelativeError(scale(approx), scale(exact))
		return math.Abs(e1-e2) < 1e-9*(1+e1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFreeRiderError(t *testing.T) {
	values := []float64{0.5, 0.0, 0.5}
	if got := FreeRiderError(values, []int{1}); got != 0 {
		t.Errorf("clean free rider error = %v", got)
	}
	values2 := []float64{0.5, 0.5, 0.5}
	got := FreeRiderError(values2, []int{1})
	want := 0.5 / math.Sqrt(0.75)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("error = %v, want %v", got, want)
	}
	// No riders → 0.
	if FreeRiderError(values2, nil) != 0 {
		t.Errorf("no riders should give 0")
	}
}

func TestSymmetryError(t *testing.T) {
	values := []float64{0.3, 0.3, 0.4}
	if got := SymmetryError(values, [][]int{{0, 1}}); got != 0 {
		t.Errorf("equal duplicates error = %v", got)
	}
	values2 := []float64{0.2, 0.4, 0.4}
	if got := SymmetryError(values2, [][]int{{0, 1}}); got == 0 {
		t.Errorf("unequal duplicates should give positive error")
	}
	// Singleton groups contribute nothing.
	if got := SymmetryError(values2, [][]int{{0}}); got != 0 {
		t.Errorf("singleton group error = %v", got)
	}
}

func TestPropertyError(t *testing.T) {
	values := []float64{0.5, 0, 0.25, 0.25}
	got := PropertyError(values, []int{1}, [][]int{{2, 3}})
	if got != 0 {
		t.Errorf("perfect values give property error %v", got)
	}
}

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v", got)
	}
	if got := Variance(xs); math.Abs(got-32.0/7) > 1e-12 {
		t.Errorf("Variance = %v, want %v", got, 32.0/7)
	}
	if got := StdDev(xs); math.Abs(got-math.Sqrt(32.0/7)) > 1e-12 {
		t.Errorf("StdDev = %v", got)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Errorf("degenerate inputs mishandled")
	}
}

func TestVectorVariance(t *testing.T) {
	// Identical runs → zero variance.
	runs := [][]float64{{1, 2}, {1, 2}, {1, 2}}
	if got := VectorVariance(runs); got != 0 {
		t.Errorf("identical runs variance = %v", got)
	}
	// Known case: coordinate 0 varies {0,2} (var 2), coordinate 1 fixed.
	runs2 := [][]float64{{0, 5}, {2, 5}}
	if got := VectorVariance(runs2); math.Abs(got-1) > 1e-12 {
		t.Errorf("variance = %v, want 1 (mean of 2 and 0)", got)
	}
	if VectorVariance(nil) != 0 {
		t.Errorf("empty runs should give 0")
	}
}

func TestKendallTau(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if got := KendallTau(a, a); got != 1 {
		t.Errorf("τ(self) = %v", got)
	}
	rev := []float64{4, 3, 2, 1}
	if got := KendallTau(a, rev); got != -1 {
		t.Errorf("τ(reversed) = %v", got)
	}
	if got := KendallTau([]float64{1}, []float64{2}); got != 1 {
		t.Errorf("τ(singleton) = %v", got)
	}
}
