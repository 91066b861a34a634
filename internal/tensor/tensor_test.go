package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestVectorDot(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	if got := v.Dot(w); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
}

func TestVectorAddScaled(t *testing.T) {
	v := Vector{1, 2}
	v.AddScaled(2, Vector{10, 20})
	if v[0] != 21 || v[1] != 42 {
		t.Errorf("AddScaled gave %v", v)
	}
}

func TestVectorCloneIndependence(t *testing.T) {
	v := Vector{1, 2, 3}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Errorf("Clone aliases original")
	}
}

func TestArgMax(t *testing.T) {
	if got := (Vector{0.1, 0.9, 0.3}).ArgMax(); got != 1 {
		t.Errorf("ArgMax = %d, want 1", got)
	}
	if got := (Vector{}).ArgMax(); got != -1 {
		t.Errorf("ArgMax(empty) = %d, want -1", got)
	}
	// First index wins ties.
	if got := (Vector{0.5, 0.5}).ArgMax(); got != 0 {
		t.Errorf("ArgMax tie = %d, want 0", got)
	}
}

func TestMatrixMulVec(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	got := m.MulVec(Vector{1, 1, 1}, nil)
	if got[0] != 6 || got[1] != 15 {
		t.Errorf("MulVec = %v", got)
	}
}

func TestMatrixMulVecT(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	got := m.MulVecT(Vector{1, 1}, nil)
	want := Vector{5, 7, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("MulVecT = %v, want %v", got, want)
			break
		}
	}
}

// Mᵀ(Mv) dotted with v equals ‖Mv‖² — an algebraic identity tying MulVec
// and MulVecT together.
func TestMulVecAdjointProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(6), 1+rng.Intn(6)
		m := NewMatrix(rows, cols)
		m.GaussianInit(1, rng)
		v := NewVector(cols)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		mv := m.MulVec(v, nil)
		mtmv := m.MulVecT(mv, nil)
		lhs := mtmv.Dot(v)
		rhs := mv.Dot(mv)
		return math.Abs(lhs-rhs) < 1e-9*(1+math.Abs(rhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAddOuterScaled(t *testing.T) {
	m := NewMatrix(2, 2)
	m.AddOuterScaled(2, Vector{1, 2}, Vector{3, 4})
	want := []float64{6, 8, 12, 16}
	for i, w := range want {
		if m.Data[i] != w {
			t.Errorf("AddOuterScaled = %v, want %v", m.Data, want)
			break
		}
	}
}

func TestMatrixRowAliases(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Row(1)[0] = 7
	if m.At(1, 0) != 7 {
		t.Errorf("Row should alias matrix storage")
	}
}

func TestSoftmax(t *testing.T) {
	out := Softmax(Vector{1, 2, 3}, nil)
	var sum float64
	for _, p := range out {
		if p <= 0 || p >= 1 {
			t.Errorf("softmax element %v out of (0,1)", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("softmax sums to %v", sum)
	}
	if !(out[2] > out[1] && out[1] > out[0]) {
		t.Errorf("softmax should be monotone in logits: %v", out)
	}
}

func TestSoftmaxStability(t *testing.T) {
	out := Softmax(Vector{1000, 1001, 999}, nil)
	var sum float64
	for _, p := range out {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("softmax overflowed: %v", out)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("softmax(large) sums to %v", sum)
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	f := func(a, b, c float64, shift float64) bool {
		clamp := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0
			}
			return math.Mod(x, 50)
		}
		a, b, c, shift = clamp(a), clamp(b), clamp(c), clamp(shift)
		p := Softmax(Vector{a, b, c}, nil)
		q := Softmax(Vector{a + shift, b + shift, c + shift}, nil)
		for i := range p {
			if math.Abs(p[i]-q[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSigmoid(t *testing.T) {
	if got := Sigmoid(0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Sigmoid(0) = %v", got)
	}
	if got := Sigmoid(100); got < 0.999 {
		t.Errorf("Sigmoid(100) = %v", got)
	}
	if got := Sigmoid(-100); got > 0.001 {
		t.Errorf("Sigmoid(-100) = %v", got)
	}
	// Symmetry σ(-x) = 1-σ(x).
	for _, x := range []float64{0.5, 1, 3, 10} {
		if math.Abs(Sigmoid(-x)-(1-Sigmoid(x))) > 1e-12 {
			t.Errorf("sigmoid symmetry violated at %v", x)
		}
	}
}

func TestReLU(t *testing.T) {
	if ReLU(-1) != 0 || ReLU(2) != 2 || ReLU(0) != 0 {
		t.Errorf("ReLU misbehaves")
	}
}

func TestClip(t *testing.T) {
	if Clip(5, 2) != 2 || Clip(-5, 2) != -2 || Clip(1, 2) != 1 {
		t.Errorf("Clip misbehaves")
	}
}

func TestXavierInitRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMatrix(10, 20)
	m.XavierInit(rng)
	bound := math.Sqrt(6.0 / 30.0)
	for _, x := range m.Data {
		if x < -bound || x > bound {
			t.Fatalf("Xavier value %v outside ±%v", x, bound)
		}
	}
	// Not all zero.
	var s float64
	for _, x := range m.Data {
		s += math.Abs(x)
	}
	if s == 0 {
		t.Errorf("Xavier init produced all zeros")
	}
}

func TestVectorScaleFill(t *testing.T) {
	v := Vector{1, 2, 3}
	v.Scale(2)
	if v[0] != 2 || v[2] != 6 {
		t.Errorf("Scale gave %v", v)
	}
	v.Fill(7)
	for _, x := range v {
		if x != 7 {
			t.Errorf("Fill gave %v", v)
		}
	}
}

func TestMatrixCloneAndScale(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 1, 3)
	c := m.Clone()
	c.Scale(2)
	if m.At(0, 1) != 3 || c.At(0, 1) != 6 {
		t.Errorf("Clone/Scale broken: %v vs %v", m.At(0, 1), c.At(0, 1))
	}
}

func TestMatrixAddScaled(t *testing.T) {
	a := NewMatrix(2, 2)
	b := NewMatrix(2, 2)
	b.Set(1, 1, 4)
	a.AddScaled(0.5, b)
	if a.At(1, 1) != 2 {
		t.Errorf("AddScaled gave %v", a.At(1, 1))
	}
}

func TestMatrixGaussianInit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMatrix(20, 20)
	m.GaussianInit(0.5, rng)
	var mean, varsum float64
	for _, x := range m.Data {
		mean += x
	}
	mean /= float64(len(m.Data))
	for _, x := range m.Data {
		varsum += (x - mean) * (x - mean)
	}
	std := math.Sqrt(varsum / float64(len(m.Data)))
	if math.Abs(mean) > 0.1 || math.Abs(std-0.5) > 0.1 {
		t.Errorf("Gaussian init mean %v std %v", mean, std)
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	check := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	v2, v3 := Vector{1, 2}, Vector{1, 2, 3}
	m := NewMatrix(2, 3)
	check("Dot", func() { v2.Dot(v3) })
	check("AddScaled", func() { v2.AddScaled(1, v3) })
	check("MulVec", func() { m.MulVec(v2, nil) })
	check("MulVecT", func() { m.MulVecT(v3, nil) })
	check("AddOuterScaled", func() { m.AddOuterScaled(1, v3, v3) })
	check("Matrix.AddScaled", func() { m.AddScaled(1, NewMatrix(3, 2)) })
	check("NewMatrix(-1,2)", func() { NewMatrix(-1, 2) })

	// A caller-supplied dst of the wrong length is the kernel's own
	// diagnostic, not a bare index-out-of-range from inside the loop (too
	// short) or a silently stale tail (too long).
	checkDst := func(name string, fn func()) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.HasPrefix(msg, "tensor: "+name+" dimension mismatch") {
				t.Errorf("%s with a mis-sized dst: panic %q, want a dimension-mismatch message", name, msg)
			}
		}()
		fn()
	}
	checkDst("MulVec", func() { m.MulVec(v3, Vector{0}) })
	checkDst("MulVec", func() { m.MulVec(v3, v3) })
	checkDst("MulVecT", func() { m.MulVecT(v2, v2) })
	checkDst("MulVecT", func() { m.MulVecT(v2, Vector{0, 0, 0, 0}) })
}

func TestMulVecTZeroSkip(t *testing.T) {
	m := NewMatrix(2, 2)
	copy(m.Data, []float64{1, 2, 3, 4})
	// Zero weight on row 0 exercises the skip path.
	got := m.MulVecT(Vector{0, 1}, nil)
	if got[0] != 3 || got[1] != 4 {
		t.Errorf("MulVecT = %v", got)
	}
}

func TestAddOuterScaledZeroSkip(t *testing.T) {
	m := NewMatrix(2, 2)
	m.AddOuterScaled(1, Vector{0, 1}, Vector{5, 6})
	if m.At(0, 0) != 0 || m.At(1, 0) != 5 || m.At(1, 1) != 6 {
		t.Errorf("AddOuterScaled = %v", m.Data)
	}
}

// The loops the blocked kernels replaced, kept as the reference: one output
// at a time, one row at a time, nothing interleaved.

func naiveMulVec(m *Matrix, v, dst Vector) {
	for i := 0; i < m.Rows; i++ {
		var s float64
		for j, x := range m.Row(i) {
			s += x * v[j]
		}
		dst[i] = s
	}
}

func naiveMulVecT(m *Matrix, v, dst Vector) {
	dst.Fill(0)
	for i := 0; i < m.Rows; i++ {
		if v[i] == 0 {
			continue
		}
		for j, x := range m.Row(i) {
			dst[j] += x * v[i]
		}
	}
}

func naiveAddOuterScaled(m *Matrix, alpha float64, u, v Vector) {
	for i := 0; i < m.Rows; i++ {
		au := alpha * u[i]
		if au == 0 {
			continue
		}
		row := m.Row(i)
		for j, x := range v {
			row[j] += au * x
		}
	}
}

// naiveAddOuter is naiveAddOuterScaled without the skip: every row gets
// its update, zero scales included.
func naiveAddOuter(m *Matrix, alpha float64, u, v Vector) {
	for i := 0; i < m.Rows; i++ {
		au := alpha * u[i]
		row := m.Row(i)
		for j, x := range v {
			row[j] += au * x
		}
	}
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestBlockedKernelsMatchNaiveBitForBit is the kernels' contract: blocking
// interleaves outputs but never reassociates a sum, so the result has the
// reference's bits — over full and partial 4-blocks, empty shapes, and a
// row-scale vector with exact zeros in every position pattern of a block
// (mask 15 is the all-zero case; the compacted groups then straddle
// blocks), with a negative zero and with alpha*u[i] underflowing to zero.
func TestBlockedKernelsMatchNaiveBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(20240914))
	fill := func(v []float64) {
		for i := range v {
			v[i] = rng.NormFloat64()
		}
	}
	for _, rows := range []int{0, 1, 2, 3, 4, 5, 7, 8, 10, 32, 33} {
		for _, cols := range []int{0, 1, 3, 32, 100} {
			m := NewMatrix(rows, cols)
			fill(m.Data)
			v := NewVector(cols)
			fill(v)

			want := NewVector(rows)
			naiveMulVec(m, v, want)
			sameBits(t, fmt.Sprintf("MulVec %dx%d (nil dst)", rows, cols), m.MulVec(v, nil), want)
			stale := NewVector(rows)
			fill(stale)
			sameBits(t, fmt.Sprintf("MulVec %dx%d (reused dst)", rows, cols), m.MulVec(v, stale), want)

			// mask bit b zeroes every u[i] with i%4 == b; 16 and 17 are
			// the negative-zero and underflow cases on a dense u.
			for mask := 0; mask <= 17; mask++ {
				u := NewVector(rows)
				fill(u)
				alpha := rng.NormFloat64()
				switch {
				case mask < 16:
					for i := range u {
						if mask&(1<<(i%4)) != 0 {
							u[i] = 0
						}
					}
				case mask == 16:
					for i := 0; i < rows; i += 3 {
						u[i] = math.Copysign(0, -1)
					}
				default:
					alpha = 1e-300
					for i := 0; i < rows; i += 2 {
						u[i] *= 1e-30 // alpha*u[i] == 0 although u[i] != 0
					}
				}
				name := fmt.Sprintf("%dx%d mask=%d", rows, cols, mask)

				wantT := NewVector(cols)
				naiveMulVecT(m, u, wantT)
				sameBits(t, "MulVecT "+name+" (nil dst)", m.MulVecT(u, nil), wantT)
				staleT := NewVector(cols)
				fill(staleT)
				sameBits(t, "MulVecT "+name+" (reused dst)", m.MulVecT(u, staleT), wantT)

				// Negative-zero weights tell a skipped row from one that
				// had ±0 added to it (-0 + +0 is +0).
				ref := m.Clone()
				for i := 0; i < len(ref.Data); i += 3 {
					ref.Data[i] = math.Copysign(0, -1)
				}
				got := ref.Clone()
				naiveAddOuterScaled(ref, alpha, u, v)
				got.AddOuterScaled(alpha, u, v)
				sameBits(t, "AddOuterScaled "+name, got.Data, ref.Data)
			}
		}
	}
}
