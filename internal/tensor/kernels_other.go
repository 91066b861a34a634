//go:build !amd64

package tensor

// Off amd64 there is no assembly: useAVX2 is constant false, every kernel
// runs its Go loop, and the entry points below only let the dispatch in
// tensor.go compile.
const useAVX2 = false

func mulVec8(a, v, dst []float64)                             { panic(noSIMD) }
func mulVecT4(dst []float64, rows *[4]Vector, vs *[4]float64) { panic(noSIMD) }
func addOuter4(rows *[4]Vector, au *[4]float64, v []float64)  { panic(noSIMD) }
func axpy(alpha float64, x, y []float64)                      { panic(noSIMD) }

const noSIMD = "tensor: no SIMD kernels on this architecture"
