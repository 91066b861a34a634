package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// The panel layout stores a Rows×Cols matrix in panels of four rows. Panel
// p holds rows 4p..4p+3 in the same Rows·Cols slots the row-major layout
// gives them, column by column: element (r, k) sits at ((r/4)·Cols + k)·4
// + r%4. A last panel of h = Rows%4 rows is laid out the same way with h in
// place of 4. A matrix–vector product then reads each column's four
// weights as one contiguous vector, so a SIMD lane per row needs a
// broadcast of x[k] and no shuffle (the packing of Goto & van de Geijn,
// "Anatomy of High-Performance Matrix Multiplication", TOMS 2008, applied
// to sums that keep their order). The Panel* methods below take a Matrix
// whose Data is in this layout; the row-major methods must not be called
// on it.

// panel returns the h rows from row p on (h = min(4, Rows−p)) of a matrix
// in the panel layout.
func (m *Matrix) panel(p int) (data []float64, h int) {
	h = min(4, m.Rows-p)
	return m.Data[p*m.Cols : (p+h)*m.Cols], h
}

// PackPanels copies src, the matrix in row-major order, into m in the panel
// layout.
func (m *Matrix) PackPanels(src []float64) {
	if len(src) != len(m.Data) {
		panic(fmt.Sprintf("tensor: PackPanels length mismatch %d vs %d", len(src), len(m.Data)))
	}
	for p := 0; p < m.Rows; p += 4 {
		d, h := m.panel(p)
		rows := src[p*m.Cols : (p+h)*m.Cols]
		if h == 4 {
			c := m.Cols
			r0, r1, r2, r3 := rows[:c], rows[c:2*c], rows[2*c:3*c], rows[3*c:4*c]
			for k := range r0 {
				o := d[4*k : 4*k+4 : 4*k+4]
				o[0], o[1], o[2], o[3] = r0[k], r1[k], r2[k], r3[k]
			}
			continue
		}
		for i, x := range rows {
			d[i%m.Cols*h+i/m.Cols] = x
		}
	}
}

// AppendUnpacked appends m, stored in the panel layout, to dst in row-major
// order.
func (m *Matrix) AppendUnpacked(dst []float64) []float64 {
	n := len(dst)
	dst = slices.Grow(dst, len(m.Data))[:n+len(m.Data)]
	out := dst[n:]
	for p := 0; p < m.Rows; p += 4 {
		d, h := m.panel(p)
		rows := out[p*m.Cols : (p+h)*m.Cols]
		if h == 4 {
			c := m.Cols
			r0, r1, r2, r3 := rows[:c], rows[c:2*c], rows[2*c:3*c], rows[3*c:4*c]
			for k := range r0 {
				w := d[4*k : 4*k+4 : 4*k+4]
				r0[k], r1[k], r2[k], r3[k] = w[0], w[1], w[2], w[3]
			}
			continue
		}
		for i := range rows {
			rows[i] = d[i%m.Cols*h+i/m.Cols]
		}
	}
	return dst
}

// PanelXavierInit is XavierInit for a matrix in the panel layout. It draws
// in row-major order, so it gives the weights that XavierInit followed by
// PackPanels gives.
func (m *Matrix) PanelXavierInit(rng *rand.Rand) {
	a := xavierBound(m)
	for p := 0; p < m.Rows; p += 4 {
		d, h := m.panel(p)
		for r := range h {
			for k := range m.Cols {
				d[k*h+r] = (rng.Float64()*2 - 1) * a
			}
		}
	}
}

// NoNegZeroOrNaN reports whether no element of v is −0 or NaN: the weights
// to which PanelAddOuter may add 0·x without changing their bits (see the
// package comment).
func NoNegZeroOrNaN(v []float64) bool {
	for _, x := range v {
		if math.Float64bits(x) == 1<<63 || x != x {
			return false
		}
	}
	return true
}

// PanelMulVec computes dst = M·x for M in the panel layout: every dst[r] is
// the left-to-right sum over k of M(r, k)·x[k], the sum MulVec forms.
//
// With AVX2 the assembly takes the whole panels, eight or four at a time
// with one accumulator each, and the last panel of one to three rows runs
// on the Go loop.
func (m *Matrix) PanelMulVec(x, dst Vector) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("tensor: PanelMulVec dimension mismatch: %dx%d matrix, len(x)=%d len(dst)=%d", m.Rows, m.Cols, len(x), len(dst)))
	}
	p := 0
	if useAVX2 {
		p = m.Rows &^ 3
		panelMulVec(m.Data[:p*m.Cols], x, dst[:p])
	}
	for ; p < m.Rows; p += 4 {
		d, h := m.panel(p)
		if h == 4 {
			var s0, s1, s2, s3 float64
			for k, xk := range x {
				w := d[4*k : 4*k+4 : 4*k+4]
				s0 += w[0] * xk
				s1 += w[1] * xk
				s2 += w[2] * xk
				s3 += w[3] * xk
			}
			o := dst[p : p+4 : p+4]
			o[0], o[1], o[2], o[3] = s0, s1, s2, s3
			continue
		}
		for r := range h {
			var s float64
			for k, xk := range x {
				s += d[k*h+r] * xk
			}
			dst[p+r] = s
		}
	}
}

// PanelAddOuter performs M += alpha·u·xᵀ for M in the panel layout, giving
// every element the one update M(r, k) += (alpha·u[r])·x[k], zero scales
// included: unlike AddOuterScaled it skips no row. The bits equal
// AddOuterScaled's when every x[k] is finite and no element of M is −0 or
// NaN (see the package comment). It runs on the Go loop on every path; it
// is the reference for PanelAddOuterMulVec's update.
func (m *Matrix) PanelAddOuter(alpha float64, u, x Vector) {
	if len(u) != m.Rows || len(x) != m.Cols {
		panic("tensor: PanelAddOuter dimension mismatch")
	}
	for p := 0; p < m.Rows; p += 4 {
		d, h := m.panel(p)
		if h == 4 {
			s0, s1, s2, s3 := alpha*u[p], alpha*u[p+1], alpha*u[p+2], alpha*u[p+3]
			for k, xk := range x {
				w := d[4*k : 4*k+4 : 4*k+4]
				w[0] += s0 * xk
				w[1] += s1 * xk
				w[2] += s2 * xk
				w[3] += s3 * xk
			}
			continue
		}
		for r := range h {
			s := alpha * u[p+r]
			for k, xk := range x {
				d[k*h+r] += s * xk
			}
		}
	}
}

// PanelAddOuterMulVec is PanelAddOuter(alpha, u, x) followed by
// PanelMulVec(next, dst), and its Go path is those two calls. With AVX2
// the assembly does both in one pass over the whole panels, four or one at
// a time: each weight is updated and then multiplied by next[k] while it
// is in a register. The last panel of one to three rows takes the two
// calls.
func (m *Matrix) PanelAddOuterMulVec(alpha float64, u, x, next, dst Vector) {
	if len(u) != m.Rows || len(x) != m.Cols || len(next) != m.Cols || len(dst) != m.Rows {
		panic("tensor: PanelAddOuterMulVec dimension mismatch")
	}
	if !useAVX2 {
		m.PanelAddOuter(alpha, u, x)
		m.PanelMulVec(next, dst)
		return
	}
	p := m.Rows &^ 3
	panelAddOuterMulVec(m.Data[:p*m.Cols], alpha, u[:p], x, next, dst[:p])
	if p < m.Rows {
		last := Matrix{Rows: m.Rows - p, Cols: m.Cols, Data: m.Data[p*m.Cols:]}
		last.PanelAddOuter(alpha, u[p:], x)
		last.PanelMulVec(next, dst[p:])
	}
}

// PanelAddOuterScaled is AddOuterScaled for M in the panel layout: rows
// with alpha·u[r] == 0 are left untouched, whatever x holds, so its bits
// are AddOuterScaled's on every input. It runs on the Go loop on every
// path.
func (m *Matrix) PanelAddOuterScaled(alpha float64, u, x Vector) {
	if len(u) != m.Rows || len(x) != m.Cols {
		panic("tensor: PanelAddOuterScaled dimension mismatch")
	}
	for p := 0; p < m.Rows; p += 4 {
		d, h := m.panel(p)
		for r := range h {
			s := alpha * u[p+r]
			if s == 0 {
				continue
			}
			for k, xk := range x {
				d[k*h+r] += s * xk
			}
		}
	}
}
