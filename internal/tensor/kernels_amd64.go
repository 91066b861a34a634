package tensor

// useAVX2 routes MulVec, MulVecT, AddOuterScaled, Vector.AddScaled,
// Vector.BiasReLU, Vector.ReLUMask, PanelMulVec and PanelAddOuterMulVec to
// the assembly in kernels_amd64.s.
// It is read from CPUID once, when the package initialises; the package's
// tests clear it to run the Go loops on the same machine.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU has AVX and AVX2 and the operating
// system saves the 256-bit registers across context switches.
func cpuHasAVX2() bool {
	const (
		osxsave  = 1 << 27     // CPUID.1:ECX
		avx      = 1 << 28     // CPUID.1:ECX
		avx2     = 1 << 5      // CPUID.(7,0):EBX
		ymmState = 1<<1 | 1<<2 // XCR0: SSE and AVX state enabled
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&ymmState != ymmState {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// mulVec8 sets each dst[i] to row i of a times v summed over the first
// len(v)&^3 columns, left to right. a holds len(dst) rows of len(v)
// columns; len(dst) is a multiple of eight.
//
//go:noescape
func mulVec8(a, v, dst []float64)

// mulVecTRows performs, for each r in rows in order, dst[j] += a[r][j]*v[r],
// where data holds the rows a[r] of len(dst) elements each: groups of four
// rows share one pass over dst, and the last len(rows)%4 rows take one
// pass each. Every r indexes a row of data and an element of v.
//
//go:noescape
func mulVecTRows(dst, data []float64, rows []uint8, v []float64)

// addOuterRows performs, for each r in rows, a[r][j] += (alpha*u[r])*v[j],
// where data holds the rows a[r] of len(v) elements each: groups of four
// rows share one pass over v, and the last len(rows)%4 rows take one pass
// each. Every r indexes a row of data and an element of u.
//
//go:noescape
func addOuterRows(data []float64, rows []uint8, alpha float64, u, v []float64)

// axpy performs y[i] += alpha*x[i]; x is at least len(y) long.
//
//go:noescape
func axpy(alpha float64, x, y []float64)

// biasReLU performs v[i] = ReLU(v[i] + b[i]); b is at least len(v) long.
//
//go:noescape
func biasReLU(v, b []float64)

// reluMask sets v[i] to +0 where act[i] <= 0; act is at least len(v) long.
//
//go:noescape
func reluMask(v, act []float64)

// panelMulVec sets dst = W·x for W in the panel layout: w holds
// len(dst)/4 whole panels of len(x) columns, and each dst[r] is summed
// left to right.
//
//go:noescape
func panelMulVec(w, x, dst []float64)

// panelAddOuterMulVec performs W(r, k) += (alpha·u[r])·x[k] on every
// element of len(u)/4 whole panels of len(x) columns in w, and then sets
// dst = W·next, in one pass over w; len(u) == len(dst).
//
//go:noescape
func panelAddOuterMulVec(w []float64, alpha float64, u, x, next, dst []float64)
