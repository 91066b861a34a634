package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// kernelCase is one set of operands for all four dispatched kernels.
type kernelCase struct {
	m        *Matrix
	u, v, w  Vector // len(u) == m.Rows; len(v) == len(w) == m.Cols
	alpha    float64
	describe string
}

// runKernels applies MulVec, MulVecT, AddOuterScaled and Vector.AddScaled
// to c on whichever path is selected, leaving c's operands untouched.
func runKernels(c kernelCase) [4][]float64 {
	outer := c.m.Clone()
	outer.AddOuterScaled(c.alpha, c.u, c.v)
	y := c.w.Clone()
	y.AddScaled(c.alpha, c.v)
	return [4][]float64{c.m.MulVec(c.v, nil), c.m.MulVecT(c.u, nil), outer.Data, y}
}

// naiveKernels is runKernels on the one-output-at-a-time reference loops.
func naiveKernels(c kernelCase) [4][]float64 {
	mv, mvt := NewVector(c.m.Rows), NewVector(c.m.Cols)
	naiveMulVec(c.m, c.v, mv)
	naiveMulVecT(c.m, c.u, mvt)
	outer := c.m.Clone()
	naiveAddOuterScaled(outer, c.alpha, c.u, c.v)
	y := c.w.Clone()
	for i := range y {
		y[i] += c.alpha * c.v[i]
	}
	return [4][]float64{mv, mvt, outer.Data, y}
}

var kernelNames = [4]string{"MulVec", "MulVecT", "AddOuterScaled", "Vector.AddScaled"}

// checkPaths compares the assembly, the Go loops and the naive reference
// on c bit for bit.
func checkPaths(t *testing.T, c kernelCase) {
	t.Helper()
	want := naiveKernels(c)
	var goLoops [4][]float64
	WithGoLoops(func() { goLoops = runKernels(c) })
	asm := runKernels(c)
	for k, name := range kernelNames {
		sameBits(t, name+" Go loops "+c.describe, goLoops[k], want[k])
		sameBits(t, name+" assembly "+c.describe, asm[k], want[k])
	}
}

// specials are the values whose arithmetic differs from that of ordinary
// numbers: signed zeros, subnormals, infinities and a product that
// overflows. NaN inputs are left out: which payload survives an operation
// on two NaNs depends on operand order, which the Go compiler does not fix
// either; the NaNs that ±Inf produce are the one default NaN on every path.
var specials = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
	math.Inf(1), math.Inf(-1), 1e308, -1e308, 1,
}

func TestKernelPathsMatchNaiveBitForBit(t *testing.T) {
	if !HasAVX2() {
		t.Skip("this CPU has no AVX2: the Go loops are the only path")
	}
	rng := rand.New(rand.NewSource(27))
	fill := func(v []float64, special float64) {
		for i := range v {
			v[i] = rng.NormFloat64()
			if rng.Float64() < special {
				v[i] = specials[rng.Intn(len(specials))]
			}
		}
	}
	for rows := 0; rows <= 17; rows++ {
		for cols := 0; cols <= 19; cols++ {
			for _, special := range []float64{0, 0.25} {
				c := kernelCase{m: NewMatrix(rows, cols), u: NewVector(rows), v: NewVector(cols), w: NewVector(cols)}
				fill(c.m.Data, special)
				fill(c.u, special)
				fill(c.v, special)
				fill(c.w, special)
				c.alpha = rng.NormFloat64()
				// Exact zeros in u skip rows of MulVecT and AddOuterScaled;
				// in v they are ordinary products.
				for i := 0; i < rows; i += 3 {
					c.u[i] = 0
				}
				for j := 1; j < cols; j += 5 {
					c.v[j] = 0
				}
				c.describe = fmt.Sprintf("%dx%d special=%v", rows, cols, special)
				checkPaths(t, c)
			}
		}
	}
}

// FuzzKernels decodes a shape, alpha and the operands from raw bytes (each
// value is eight bytes of IEEE bits, reused cyclically, NaN bits turned into
// the infinity of the same sign) and compares the three paths bit for bit.
func FuzzKernels(f *testing.F) {
	if !HasAVX2() {
		f.Skip("this CPU has no AVX2: the Go loops are the only path")
	}
	bits := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	rng := rand.New(rand.NewSource(9))
	normals := make([]float64, 64)
	for i := range normals {
		normals[i] = rng.NormFloat64()
	}
	f.Add(uint8(8), uint8(4), bits(normals...))
	f.Add(uint8(17), uint8(19), bits(normals...))
	f.Add(uint8(10), uint8(32), bits(normals[:37]...))
	f.Add(uint8(9), uint8(7), bits(specials...))
	f.Add(uint8(16), uint8(3), bits(append(specials, normals[:5]...)...))
	f.Add(uint8(0), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, rows, cols uint8, data []byte) {
		r, c := int(rows%40), int(cols%40)
		pool := make([]float64, 0, len(data)/8)
		for ; len(data) >= 8; data = data[8:] {
			x := math.Float64frombits(binary.LittleEndian.Uint64(data))
			if math.IsNaN(x) {
				x = math.Copysign(math.Inf(1), x)
			}
			pool = append(pool, x)
		}
		if len(pool) == 0 {
			pool = append(pool, 1)
		}
		next := 0
		fill := func(v []float64) {
			for i := range v {
				v[i] = pool[next%len(pool)]
				next++
			}
		}
		kc := kernelCase{m: NewMatrix(r, c), u: NewVector(r), v: NewVector(c), w: NewVector(c),
			describe: fmt.Sprintf("%dx%d fuzz", r, c)}
		fill(kc.m.Data)
		fill(kc.u)
		fill(kc.v)
		fill(kc.w)
		kc.alpha = pool[next%len(pool)]
		checkPaths(t, kc)
	})
}

// TestKernelsDoNotAllocate: on both paths none of the four kernels
// allocates. The operands live in arrays local to each call, so they stay
// on the stack only while no kernel lets a pointer escape — which is what
// //go:noescape on the assembly declarations promises the compiler.
func TestKernelsDoNotAllocate(t *testing.T) {
	kernels := []struct {
		name string
		run  func()
	}{
		{"MulVec", func() {
			var a [16 * 6]float64
			var x [6]float64
			var y [16]float64
			m := Matrix{Rows: 16, Cols: 6, Data: a[:]}
			m.MulVec(x[:], y[:])
		}},
		{"MulVecT", func() {
			var a [6 * 16]float64
			var x [6]float64
			var y [16]float64
			x[0], x[1], x[2], x[3], x[4], x[5] = 1, 2, 3, 4, 5, 6
			m := Matrix{Rows: 6, Cols: 16, Data: a[:]}
			m.MulVecT(x[:], y[:])
		}},
		{"AddOuterScaled", func() {
			var a [6 * 16]float64
			var u [6]float64
			var v [16]float64
			u[0], u[1], u[2], u[3], u[4], u[5] = 1, 2, 3, 4, 5, 6
			m := Matrix{Rows: 6, Cols: 16, Data: a[:]}
			m.AddOuterScaled(0.5, u[:], v[:])
		}},
		{"Vector.AddScaled", func() {
			var x, y [16]float64
			Vector(y[:]).AddScaled(0.5, x[:])
		}},
	}
	paths := []struct {
		name string
		run  func(func())
	}{
		{"assembly", func(f func()) { f() }},
		{"Go loops", WithGoLoops},
	}
	for _, p := range paths {
		if p.name == "assembly" && !HasAVX2() {
			continue
		}
		for _, k := range kernels {
			p.run(func() {
				if n := testing.AllocsPerRun(100, k.run); n != 0 {
					t.Errorf("%s on the %s: %v allocations per call, want 0", k.name, p.name, n)
				}
			})
		}
	}
}
