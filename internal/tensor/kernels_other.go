//go:build !amd64

package tensor

// Off amd64 there is no assembly: useAVX2 is constant false, every kernel
// runs its Go loop, and the entry points below only let the dispatch in
// tensor.go compile.
const useAVX2 = false

func mulVec8(a, v, dst []float64)                                               { panic(noSIMD) }
func mulVecTRows(dst, data []float64, rows []uint8, v []float64)                { panic(noSIMD) }
func addOuterRows(data []float64, rows []uint8, alpha float64, u, v []float64)  { panic(noSIMD) }
func axpy(alpha float64, x, y []float64)                                        { panic(noSIMD) }
func biasReLU(v, b []float64)                                                   { panic(noSIMD) }
func reluMask(v, act []float64)                                                 { panic(noSIMD) }
func panelMulVec(w, x, dst []float64)                                           { panic(noSIMD) }
func panelAddOuterMulVec(w []float64, alpha float64, u, x, next, dst []float64) { panic(noSIMD) }

const noSIMD = "tensor: no SIMD kernels on this architecture"
