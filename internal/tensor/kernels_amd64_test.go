package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// kernelCase is one set of operands for all the dispatched kernels.
type kernelCase struct {
	m       *Matrix
	u, v, w Vector // len(u) == m.Rows; len(v) == len(w) == m.Cols
	alpha   float64
	// x, b and act are the ReLU kernels' operands, m.Cols long each. Unlike
	// the others they may hold NaN: ReLU turns every NaN into +0 and the
	// mask passes x through bit for bit, so no NaN payload depends on an
	// operand order.
	x, b, act Vector
	describe  string
}

// kernelNames names runKernels' results in order. The panel kernels run on
// m packed into the panel layout; their matrices are compared unpacked.
var kernelNames = [...]string{
	"MulVec", "MulVecT", "AddOuterScaled", "Vector.AddScaled", "Vector.BiasReLU", "Vector.ReLUMask",
	"PanelMulVec", "PanelAddOuter", "PanelAddOuterMulVec (weights)", "PanelAddOuterMulVec (product)",
	"PanelAddOuterScaled",
}

type kernelResults [len(kernelNames)][]float64

// packed returns a copy of m in the panel layout.
func packed(m *Matrix) *Matrix {
	p := NewMatrix(m.Rows, m.Cols)
	p.PackPanels(m.Data)
	return p
}

// runKernels applies every dispatched kernel to c on whichever path is
// selected, leaving c's operands untouched. PanelAddOuterMulVec updates
// with v and multiplies by w.
func runKernels(c kernelCase) kernelResults {
	outer := c.m.Clone()
	outer.AddOuterScaled(c.alpha, c.u, c.v)
	y := c.w.Clone()
	y.AddScaled(c.alpha, c.v)
	relu := c.x.Clone()
	relu.BiasReLU(c.b)
	mask := c.x.Clone()
	mask.ReLUMask(c.act)
	panelMV := NewVector(c.m.Rows)
	packed(c.m).PanelMulVec(c.v, panelMV)
	panelOuter := packed(c.m)
	panelOuter.PanelAddOuter(c.alpha, c.u, c.v)
	fused, fusedMV := packed(c.m), NewVector(c.m.Rows)
	fused.PanelAddOuterMulVec(c.alpha, c.u, c.v, c.w, fusedMV)
	panelSkip := packed(c.m)
	panelSkip.PanelAddOuterScaled(c.alpha, c.u, c.v)
	return kernelResults{c.m.MulVec(c.v, nil), c.m.MulVecT(c.u, nil), outer.Data, y, relu, mask,
		panelMV, panelOuter.AppendUnpacked(nil), fused.AppendUnpacked(nil), fusedMV, panelSkip.AppendUnpacked(nil)}
}

// naiveKernels is runKernels on the one-output-at-a-time reference loops,
// all of them row-major.
func naiveKernels(c kernelCase) kernelResults {
	mv, mvt := NewVector(c.m.Rows), NewVector(c.m.Cols)
	naiveMulVec(c.m, c.v, mv)
	naiveMulVecT(c.m, c.u, mvt)
	outer := c.m.Clone()
	naiveAddOuterScaled(outer, c.alpha, c.u, c.v)
	y := c.w.Clone()
	for i := range y {
		y[i] += c.alpha * c.v[i]
	}
	relu := c.x.Clone()
	for i, x := range relu {
		if s := x + c.b[i]; s > 0 {
			relu[i] = s
		} else {
			relu[i] = 0
		}
	}
	mask := c.x.Clone()
	for i, a := range c.act {
		if a <= 0 {
			mask[i] = 0
		}
	}
	every := c.m.Clone()
	naiveAddOuter(every, c.alpha, c.u, c.v)
	fusedMV := NewVector(c.m.Rows)
	naiveMulVec(every, c.w, fusedMV)
	return kernelResults{mv, mvt, outer.Data, y, relu, mask, mv, every.Data, every.Data, fusedMV, outer.Data}
}

// checkPaths compares the assembly, the Go loops and the naive reference
// on c bit for bit.
func checkPaths(t *testing.T, c kernelCase) {
	t.Helper()
	want := naiveKernels(c)
	var goLoops kernelResults
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

// reluSpecials adds NaNs of both signs, one with a payload, for the ReLU
// kernels' operands.
var reluSpecials = append(specials[:len(specials):len(specials)],
	math.NaN(), math.Copysign(math.NaN(), -1), math.Float64frombits(0x7ff8_0000_dead_beef))

// randomCase draws a rows×cols case of normal values, each replaced with
// probability special by one of specials (reluSpecials for the ReLU
// kernels' operands).
func randomCase(rng *rand.Rand, rows, cols int, special float64) kernelCase {
	fill := func(v []float64, from []float64) {
		for i := range v {
			v[i] = rng.NormFloat64()
			if rng.Float64() < special {
				v[i] = from[rng.Intn(len(from))]
			}
		}
	}
	c := kernelCase{m: NewMatrix(rows, cols), u: NewVector(rows), v: NewVector(cols), w: NewVector(cols),
		x: NewVector(cols), b: NewVector(cols), act: NewVector(cols), alpha: rng.NormFloat64()}
	for _, v := range []Vector{c.m.Data, c.u, c.v, c.w} {
		fill(v, specials)
	}
	for _, v := range []Vector{c.x, c.b, c.act} {
		fill(v, reluSpecials)
	}
	return c
}

func TestKernelPathsMatchNaiveBitForBit(t *testing.T) {
	if !HasAVX2() {
		t.Skip("this CPU has no AVX2: the Go loops are the only path")
	}
	rng := rand.New(rand.NewSource(27))
	for rows := 0; rows <= 17; rows++ {
		for cols := 0; cols <= 19; cols++ {
			for _, special := range []float64{0, 0.25} {
				c := randomCase(rng, rows, cols, special)
				// Exact zeros in u skip rows of MulVecT and AddOuterScaled;
				// in v they are ordinary products.
				for i := 0; i < rows; i += 3 {
					c.u[i] = 0
				}
				for j := 1; j < cols; j += 5 {
					c.v[j] = 0
				}
				// -0 + -0 is -0, which ReLU makes +0; a -0 activation
				// masks.
				for j := 3; j < cols; j += 7 {
					c.x[j], c.b[j], c.act[j] = math.Copysign(0, -1), math.Copysign(0, -1), math.Copysign(0, -1)
				}
				c.describe = fmt.Sprintf("%dx%d special=%v", rows, cols, special)
				checkPaths(t, c)
			}
		}
	}
	// The panel kernels take eight whole panels, then four, then one, then
	// a last panel of one to three rows: these heights reach every mix.
	for _, rows := range []int{28, 31, 32, 33, 35, 36, 44, 45, 47} {
		for _, cols := range []int{1, 4, 7, 100} {
			c := randomCase(rng, rows, cols, 0.1)
			for i := 1; i < rows; i += 3 {
				c.u[i] = 0
			}
			c.describe = fmt.Sprintf("%dx%d panels", rows, cols)
			checkPaths(t, c)
		}
	}
}

// TestCompactionPhasesMatchNaive: MulVecT and AddOuterScaled compact the
// rows of u that are not exact zeros, take them four at a time and the
// last one to three on their own, rowBlock rows of u per compaction. Runs
// of zeros of every length from 0 to 9, starting at every offset mod 4 and
// separated by one to five non-zero rows, end a run at every position of a
// group, and the 2·rowBlock+5-row shapes carry runs across compactions.
// Negative-zero weights tell a skipped row from one that had ±0 added.
func TestCompactionPhasesMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for run := 0; run <= 9; run++ {
		for off := 0; off < 4; off++ {
			for _, rows := range []int{off + run, off + run + 3, 2*rowBlock + 5} {
				for _, cols := range []int{3, 8, 13} {
					c := randomCase(rng, rows, cols, 0)
					for i := 0; i < len(c.m.Data); i += 3 {
						c.m.Data[i] = math.Copysign(0, -1)
					}
					for i, gap := off, 1; i < rows; i, gap = i+gap, gap%5+1 {
						for end := min(i+run, rows); i < end; i++ {
							c.u[i] = 0
						}
					}
					c.describe = fmt.Sprintf("%dx%d zero runs of %d from %d", rows, cols, run, off)
					checkPaths(t, c)
				}
			}
		}
	}
}

// FuzzKernels decodes a shape, alpha and the operands from raw bytes (each
// value is eight bytes of IEEE bits, reused cyclically) and compares the
// three paths bit for bit. NaN bits are turned into the infinity of the
// same sign, except in the ReLU kernels' operands, which take NaN as it is.
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
	f.Add(uint8(5), uint8(13), bits(append(reluSpecials, normals[:7]...)...))
	f.Add(uint8(0), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, rows, cols uint8, data []byte) {
		r, c := int(rows%40), int(cols%40)
		pool := make([]float64, 0, len(data)/8)
		for ; len(data) >= 8; data = data[8:] {
			pool = append(pool, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		if len(pool) == 0 {
			pool = append(pool, 1)
		}
		next := 0
		fill := func(v []float64, keepNaN bool) {
			for i := range v {
				x := pool[next%len(pool)]
				next++
				if math.IsNaN(x) && !keepNaN {
					x = math.Copysign(math.Inf(1), x)
				}
				v[i] = x
			}
		}
		kc := kernelCase{m: NewMatrix(r, c), u: NewVector(r), v: NewVector(c), w: NewVector(c),
			x: NewVector(c), b: NewVector(c), act: NewVector(c), describe: fmt.Sprintf("%dx%d fuzz", r, c)}
		alpha := Vector{0}
		for _, v := range []Vector{kc.m.Data, kc.u, kc.v, kc.w, alpha} {
			fill(v, false)
		}
		for _, v := range []Vector{kc.x, kc.b, kc.act} {
			fill(v, true)
		}
		kc.alpha = alpha[0]
		checkPaths(t, kc)
	})
}

// TestKernelsDoNotAllocate: on both paths none of the kernels
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
		{"Vector.BiasReLU", func() {
			var x, b [19]float64
			Vector(x[:]).BiasReLU(b[:])
		}},
		{"Vector.ReLUMask", func() {
			var x, act [19]float64
			Vector(x[:]).ReLUMask(act[:])
		}},
		{"PanelMulVec", func() {
			var a [35 * 6]float64
			var x [6]float64
			var y [35]float64
			m := Matrix{Rows: 35, Cols: 6, Data: a[:]}
			m.PanelMulVec(x[:], y[:])
		}},
		{"PanelAddOuter", func() {
			var a [35 * 6]float64
			var u [35]float64
			var x [6]float64
			m := Matrix{Rows: 35, Cols: 6, Data: a[:]}
			m.PanelAddOuter(0.5, u[:], x[:])
		}},
		{"PanelAddOuterMulVec", func() {
			var a [35 * 6]float64
			var u, y [35]float64
			var x, next [6]float64
			m := Matrix{Rows: 35, Cols: 6, Data: a[:]}
			m.PanelAddOuterMulVec(0.5, u[:], x[:], next[:], y[:])
		}},
		{"PanelAddOuterScaled", func() {
			var a [35 * 6]float64
			var u [35]float64
			var x [6]float64
			u[0], u[5] = 1, 2
			m := Matrix{Rows: 35, Cols: 6, Data: a[:]}
			m.PanelAddOuterScaled(0.5, u[:], x[:])
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
