// Package tensor implements the dense linear algebra needed by the model
// substrate: float64 vectors and row-major matrices with the handful of
// BLAS-like kernels (matmul, rank-1 update, axpy) that neural-network
// training requires, plus deterministic random initialisation.
//
// Everything above this package — FedAvg aggregation, the utility cache, the
// serial-versus-parallel determinism contract — assumes that a trained
// parameter is a pure function of its inputs, so the kernels hold one
// invariant: the order in which each output element is summed is fixed.
// MulVec adds row·v left to right over the columns, MulVecT adds the
// non-zero rows in ascending order, and AddOuterScaled gives every element
// exactly one update. Blocking may interleave the work of several outputs
// to keep independent additions in flight, but it never reassociates a
// sum, so a faster kernel produces the same bits as the naive loop (which
// tensor_test.go keeps as the reference).
//
// On amd64 CPUs with AVX2, chosen once from CPUID when the package
// initialises, MulVec, MulVecT, AddOuterScaled and Vector.AddScaled run
// assembly (kernels_amd64.s) under the same invariant. Every SIMD lane is
// one output element: MulVec's lanes are rows, whose 4×4 blocks are
// transposed so that each lane still adds its columns left to right, and
// the other kernels' lanes are columns, which already are independent
// outputs. A product and the add that consumes it stay two roundings
// (VMULPD, then VADDPD; never a fused multiply-add), as in the Go loops —
// the Go compiler does not fuse them on amd64. The Go loops remain the
// portable path on every other CPU and architecture, and the reference the
// assembly is tested against bit for bit on both paths.
//
// Vector.BiasReLU and Vector.ReLUMask, the per-element glue of a hidden
// layer, run assembly too. They sum nothing, so their rule is that each
// instruction computes exactly the Go expression. BiasReLU is VADDPD, then
// VMAXPD with zero as the second source, which the instruction returns
// whenever "first > second" is false: a NaN sum and a sum of either zero
// become +0, as in Go's x > 0 ? x : 0. ReLUMask compares act with the
// ordered less-or-equal predicate (LE_OS), false on NaN as Go's <= is, and
// VANDNPD clears v where the mask is set and passes v's bits through
// everywhere else. NaN is therefore safe in both: ReLU turns every NaN into
// +0 and the mask only copies bits, so no result depends on which of two
// NaN payloads an instruction keeps.
//
// MulVecT and AddOuterScaled skip the rows whose scale is an exact zero.
// Behind a ReLU about half of them are, in a pattern that changes with
// every sample, so a branch per row is mispredicted about every other row
// and costs more than the skip saves. The rows are compacted without a
// branch instead: every row's index is written to a small stack array and
// the count advances by a conditional move, and the assembly then takes
// the compacted rows four at a time, addressing each from the matrix's
// base and its index.
//
// The first layer of a network with a hidden layer is its widest matrix,
// and MulVec spends its time on the shuffles that transpose row-major
// blocks. The Panel* methods (panels.go) take that matrix in a panel
// layout instead: each panel holds four rows column by column, so column
// k's four weights are one contiguous vector and a lane per row needs only
// a broadcast of x[k]. PanelMulVec keeps MulVec's sums, left to right.
// PanelAddOuter updates every row, zero scales included, and
// PanelAddOuterMulVec does that update and then the next product in one
// pass over the weights, which lets a trainer defer each sample's update
// into the next sample's forward: nothing reads the weights in between.
//
// Updating a row whose scale alpha·u[r] is zero adds 0·x[k] to each of
// its weights w, where AddOuterScaled leaves the row alone. The bits agree
// when x[k] is finite, so that 0·x[k] is ±0, and w is neither −0 (−0 + +0
// is +0) nor a signalling NaN (which the add would quiet); w + ±0 is w for
// every other w, a quiet NaN included. So the caller keeps the weights
// free of −0 and NaN, checking them with NoNegZeroOrNaN where they come
// in. Training then keeps the invariant: under round-to-nearest, x + y is
// −0 only when both are −0, and arithmetic never produces a signalling
// NaN. x[k] is checked through the forward pass: a non-finite x[k] makes
// every product of column k, hence every sum W·x, NaN or ±Inf, so one
// finite output of W·x proves every x[k] finite. When either check fails
// the update must skip the zero-scale rows: PanelAddOuterScaled. (A
// fused kernel that blends the old weights back into those rows would
// need neither check, but VBLENDVPD made it 53–92 % slower on an AVX-512
// Xeon running the AVX2 path.)
//
// A classifier's prediction is the argmax of the softmax of its logits z.
// Softmax scales every exp(z[c] − max) by one factor, so the largest
// probability is the first maximal logit's, and an earlier class ties with
// it only if its logit is within a few ulps of the maximum. The model
// package therefore takes the first strict maximum of z, and falls back to
// the softmax when a logit is NaN or ±Inf or an earlier logit is within
// 1e-12 of the maximum.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Vector is a dense float64 vector.
type Vector []float64

// NewVector allocates a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a deep copy.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Dot returns the inner product v·w.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: Dot dimension mismatch %d vs %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// AddScaled performs v += alpha * w (axpy).
func (v Vector) AddScaled(alpha float64, w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: AddScaled dimension mismatch %d vs %d", len(v), len(w)))
	}
	if useAVX2 {
		axpy(alpha, w, v)
		return
	}
	for i := range v {
		v[i] += alpha * w[i]
	}
}

// BiasReLU performs v[i] = ReLU(v[i] + b[i]), the epilogue of a hidden
// layer's affine map.
func (v Vector) BiasReLU(b Vector) {
	if len(v) != len(b) {
		panic(fmt.Sprintf("tensor: BiasReLU dimension mismatch %d vs %d", len(v), len(b)))
	}
	if useAVX2 {
		biasReLU(v, b)
		return
	}
	for i, x := range b {
		v[i] = ReLU(v[i] + x)
	}
}

// ReLUMask sets v[i] to zero wherever act[i] <= 0: the backward pass of a
// ReLU whose outputs are act. A NaN activation keeps its v[i].
func (v Vector) ReLUMask(act Vector) {
	if len(v) != len(act) {
		panic(fmt.Sprintf("tensor: ReLUMask dimension mismatch %d vs %d", len(v), len(act)))
	}
	if useAVX2 {
		reluMask(v, act)
		return
	}
	for i, a := range act {
		if a <= 0 {
			v[i] = 0
		}
	}
}

// Scale performs v *= alpha.
func (v Vector) Scale(alpha float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Fill sets every element to x.
func (v Vector) Fill(x float64) {
	for i := range v {
		v[i] = x
	}
}

// ArgMax returns the index of the largest element (first on ties), or -1 for
// an empty vector.
func (v Vector) ArgMax() int {
	if len(v) == 0 {
		return -1
	}
	best, bi := v[0], 0
	for i := 1; i < len(v); i++ {
		if v[i] > best {
			best, bi = v[i], i
		}
	}
	return bi
}

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("tensor: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, x float64) { m.Data[i*m.Cols+j] = x }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MulVec computes dst = M * v, allocating dst when nil.
//
// Four rows are reduced per pass over v, one accumulator each: the four
// chains are independent, so the adds overlap instead of queueing behind
// one another, while every dst[i] is still the left-to-right sum over j.
// With AVX2 the assembly takes whole groups of eight rows over whole
// blocks of four columns, and the loop below continues each of those sums
// over the last cols%4 columns. A last group of two or three rows also
// shares one pass, so a 10-class output layer's two rows after the
// assembly's eight add in parallel too.
func (m *Matrix) MulVec(v Vector, dst Vector) Vector {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: MulVec dimension mismatch: cols=%d len(v)=%d", m.Cols, len(v)))
	}
	if dst == nil {
		dst = NewVector(m.Rows)
	} else if len(dst) != m.Rows {
		panic(fmt.Sprintf("tensor: MulVec dimension mismatch: rows=%d len(dst)=%d", m.Rows, len(dst)))
	}
	cols := len(v)
	i := 0
	if useAVX2 && m.Rows >= 8 {
		i = m.Rows &^ 7
		mulVec8(m.Data[:i*cols], v, dst[:i])
		if tail := cols &^ 3; tail < cols {
			for r := range dst[:i] {
				row, s := m.Row(r), dst[r]
				for j := tail; j < cols; j++ {
					s += row[j] * v[j]
				}
				dst[r] = s
			}
		}
	}
	for ; i+4 <= m.Rows; i += 4 {
		// Slicing each row to len(v) lets the compiler drop the bounds
		// checks on rK[j] inside the loop.
		blk := m.Data[i*cols : (i+4)*cols]
		r0, r1, r2, r3 := blk[:len(v)], blk[cols:][:len(v)], blk[2*cols:][:len(v)], blk[3*cols:][:len(v)]
		var s0, s1, s2, s3 float64
		for j, x := range v {
			s0 += r0[j] * x
			s1 += r1[j] * x
			s2 += r2[j] * x
			s3 += r3[j] * x
		}
		d := dst[i : i+4 : i+4]
		d[0], d[1], d[2], d[3] = s0, s1, s2, s3
	}
	// The last one to three rows share one pass as well, a chain each.
	blk := m.Data[i*cols:]
	switch m.Rows - i {
	case 3:
		r0, r1, r2 := blk[:len(v)], blk[cols:][:len(v)], blk[2*cols:][:len(v)]
		var s0, s1, s2 float64
		for j, x := range v {
			s0 += r0[j] * x
			s1 += r1[j] * x
			s2 += r2[j] * x
		}
		dst[i], dst[i+1], dst[i+2] = s0, s1, s2
	case 2:
		r0, r1 := blk[:len(v)], blk[cols:][:len(v)]
		var s0, s1 float64
		for j, x := range v {
			s0 += r0[j] * x
			s1 += r1[j] * x
		}
		dst[i], dst[i+1] = s0, s1
	case 1:
		row := blk[:len(v)]
		var s float64
		for j, x := range v {
			s += row[j] * x
		}
		dst[i] = s
	}
	return dst
}

// MulVecT computes dst = Mᵀ * v, allocating dst when nil. Rows with
// v[i] == 0 contribute nothing and are skipped.
//
// The non-zero rows are compacted as in AddOuterScaled and added to dst in
// ascending order, each group of four in one pass over dst.
func (m *Matrix) MulVecT(v Vector, dst Vector) Vector {
	if len(v) != m.Rows {
		panic(fmt.Sprintf("tensor: MulVecT dimension mismatch: rows=%d len(v)=%d", m.Rows, len(v)))
	}
	if dst == nil {
		dst = NewVector(m.Cols)
	} else if len(dst) != m.Cols {
		panic(fmt.Sprintf("tensor: MulVecT dimension mismatch: cols=%d len(dst)=%d", m.Cols, len(dst)))
	} else {
		dst.Fill(0)
	}
	var idx [rowBlock]uint8
	for base := 0; base < len(v); base += rowBlock {
		vb := v[base:min(base+rowBlock, len(v))]
		// 1·v[i] is v[i]: the test is v[i] != 0.
		rows := idx[:nonZeroRows(&idx, 1, vb)]
		block := m.Data[base*m.Cols : (base+len(vb))*m.Cols]
		if useAVX2 {
			mulVecTRows(dst, block, rows, vb)
		} else {
			mulVecTRowsGo(dst, block, rows, vb)
		}
	}
	return dst
}

// AddOuterScaled performs M += alpha * u * vᵀ (rank-1 update). Rows with
// alpha*u[i] == 0 are left untouched.
//
// The non-zero rows are compacted into groups of four that share one pass
// over v; every element still receives exactly one += of its own product.
func (m *Matrix) AddOuterScaled(alpha float64, u, v Vector) {
	if len(u) != m.Rows || len(v) != m.Cols {
		panic("tensor: AddOuterScaled dimension mismatch")
	}
	var idx [rowBlock]uint8
	for base := 0; base < len(u); base += rowBlock {
		ub := u[base:min(base+rowBlock, len(u))]
		rows := idx[:nonZeroRows(&idx, alpha, ub)]
		block := m.Data[base*m.Cols : (base+len(ub))*m.Cols]
		if useAVX2 {
			addOuterRows(block, rows, alpha, ub, v)
		} else {
			addOuterRowsGo(block, rows, alpha, ub, v)
		}
	}
}

// rowBlock is how many rows one compaction covers: a 32-wide hidden layer
// fits in one, and a row's index within it fits a byte.
const rowBlock = 32

// nonZeroRows writes to idx, in ascending order, the indices i of the
// elements of u (at most rowBlock of them) with alpha*u[i] != 0, and
// returns how many there are.
//
// Every index is written and the count advances only past the non-zero
// rows: a conditional move, not a branch (see the package comment).
// Inlined into its callers, the loop shares registers with their kernel
// call and the count goes through the stack on every row.
//
//go:noinline
func nonZeroRows(idx *[rowBlock]uint8, alpha float64, u Vector) int {
	k := 0
	for i, ui := range u {
		idx[k&(rowBlock-1)] = uint8(i)
		if alpha*ui != 0 {
			k++
		}
	}
	return k
}

// mulVecTRowsGo is mulVecTRows on the Go loops: for each r in rows, in
// order, dst[j] += row r of data times v[r], four rows per pass over dst.
func mulVecTRowsGo(dst, data []float64, rows []uint8, v []float64) {
	n := len(dst)
	g := 0
	for ; g+4 <= len(rows); g += 4 {
		q := rows[g : g+4 : g+4]
		i0, i1, i2, i3 := int(q[0]), int(q[1]), int(q[2]), int(q[3])
		r0, r1, r2, r3 := data[i0*n:][:n], data[i1*n:][:n], data[i2*n:][:n], data[i3*n:][:n]
		v0, v1, v2, v3 := v[i0], v[i1], v[i2], v[i3]
		for j, d := range dst {
			d += r0[j] * v0
			d += r1[j] * v1
			d += r2[j] * v2
			d += r3[j] * v3
			dst[j] = d
		}
	}
	for _, i := range rows[g:] {
		row, a := data[int(i)*n:][:n], v[i]
		for j := range dst {
			dst[j] += row[j] * a
		}
	}
}

// addOuterRowsGo is addOuterRows on the Go loops: for each r in rows,
// row r of data += alpha*u[r] times v, four rows per pass over v.
func addOuterRowsGo(data []float64, rows []uint8, alpha float64, u, v []float64) {
	n := len(v)
	g := 0
	for ; g+4 <= len(rows); g += 4 {
		q := rows[g : g+4 : g+4]
		i0, i1, i2, i3 := int(q[0]), int(q[1]), int(q[2]), int(q[3])
		r0, r1, r2, r3 := data[i0*n:][:n], data[i1*n:][:n], data[i2*n:][:n], data[i3*n:][:n]
		a0, a1, a2, a3 := alpha*u[i0], alpha*u[i1], alpha*u[i2], alpha*u[i3]
		for j, x := range v {
			r0[j] += a0 * x
			r1[j] += a1 * x
			r2[j] += a2 * x
			r3[j] += a3 * x
		}
	}
	for _, i := range rows[g:] {
		row, a := data[int(i)*n:][:n], alpha*u[i]
		for j, x := range v {
			row[j] += a * x
		}
	}
}

// AddScaled performs M += alpha * W elementwise.
func (m *Matrix) AddScaled(alpha float64, w *Matrix) {
	if m.Rows != w.Rows || m.Cols != w.Cols {
		panic("tensor: AddScaled matrix shape mismatch")
	}
	for i, x := range w.Data {
		m.Data[i] += alpha * x
	}
}

// Scale performs M *= alpha elementwise.
func (m *Matrix) Scale(alpha float64) {
	for i := range m.Data {
		m.Data[i] *= alpha
	}
}

// XavierInit fills the matrix with Uniform(-a, a), a = sqrt(6/(fanIn+fanOut)),
// the Glorot/Xavier scheme that keeps activations well-scaled at init.
func (m *Matrix) XavierInit(rng *rand.Rand) {
	a := xavierBound(m)
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * a
	}
}

// xavierBound is XavierInit's a for m's shape.
func xavierBound(m *Matrix) float64 { return math.Sqrt(6.0 / float64(m.Rows+m.Cols)) }

// GaussianInit fills the matrix with N(0, std²).
func (m *Matrix) GaussianInit(std float64, rng *rand.Rand) {
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
}
