package tensor

// useAVX2 routes MulVec, MulVecT, AddOuterScaled and Vector.AddScaled to
// the assembly in kernels_amd64.s. It is read from CPUID once, when the
// package initialises; the package's tests clear it to run the Go loops on
// the same machine.
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

// mulVecT4 performs dst[j] += rows[k][j]*vs[k] for k = 0, 1, 2, 3 in that
// order. Every row is at least len(dst) long.
//
//go:noescape
func mulVecT4(dst []float64, rows *[4]Vector, vs *[4]float64)

// addOuter4 performs rows[k][j] += au[k]*v[j] for k = 0..3. Every row is
// at least len(v) long.
//
//go:noescape
func addOuter4(rows *[4]Vector, au *[4]float64, v []float64)

// axpy performs y[i] += alpha*x[i]; x is at least len(y) long.
//
//go:noescape
func axpy(alpha float64, x, y []float64)
