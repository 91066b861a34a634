package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// The two weight shapes of the MLP every benchmark workload trains
// (100 → 32 → 10): the kernels' cost at these shapes is the cost of a
// coalition training.
var benchShapes = [][2]int{{32, 100}, {10, 32}}

func benchOperands(rows, cols int) (m *Matrix, u, v Vector) {
	rng := rand.New(rand.NewSource(1))
	m = NewMatrix(rows, cols)
	m.XavierInit(rng)
	u, v = NewVector(rows), NewVector(cols)
	for i := range u {
		u[i] = rng.NormFloat64()
	}
	for j := range v {
		v[j] = rng.NormFloat64()
	}
	return m, u, v
}

func benchKernel(b *testing.B, kernel func(m *Matrix, u, v Vector)) {
	for _, s := range benchShapes {
		m, u, v := benchOperands(s[0], s[1])
		b.Run(fmt.Sprintf("%dx%d", s[0], s[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernel(m, u, v)
			}
		})
	}
}

// benchReLUKernel is benchKernel with u shaped like a gradient behind a
// ReLU: about half of it exact zeros, at seeded random positions that
// change from call to call, as they do from sample to sample in training.
// The patterns cycle through 1021 vectors; a branch predictor learns a
// cycle of 61, which hides what a mispredicted row skip costs.
func benchReLUKernel(b *testing.B, kernel func(m *Matrix, u, v Vector)) {
	rng := rand.New(rand.NewSource(2))
	for _, s := range benchShapes {
		m, u, v := benchOperands(s[0], s[1])
		us := make([]Vector, 1021)
		for k := range us {
			us[k] = u.Clone()
			for i := range us[k] {
				if rng.Intn(2) == 0 {
					us[k][i] = 0
				}
			}
		}
		b.Run(fmt.Sprintf("%dx%d", s[0], s[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernel(m, us[i%len(us)], v)
			}
		})
	}
}

func BenchmarkMulVec(b *testing.B) {
	benchKernel(b, func(m *Matrix, u, v Vector) { m.MulVec(v, u) })
}

func BenchmarkMulVecT(b *testing.B) {
	benchKernel(b, func(m *Matrix, u, v Vector) { m.MulVecT(u, v) })
}

func BenchmarkMulVecTReLU(b *testing.B) {
	benchReLUKernel(b, func(m *Matrix, u, v Vector) { m.MulVecT(u, v) })
}

// The tiny alpha keeps the weights bounded over b.N updates without making
// any alpha*u[i] underflow to the skipped-row case.
func BenchmarkAddOuterScaled(b *testing.B) {
	benchKernel(b, func(m *Matrix, u, v Vector) { m.AddOuterScaled(1e-9, u, v) })
}

func BenchmarkVectorAddScaled(b *testing.B) {
	benchKernel(b, func(m *Matrix, u, v Vector) { m.Row(0).AddScaled(1e-9, v) })
}

func BenchmarkAddOuterScaledReLU(b *testing.B) {
	benchReLUKernel(b, func(m *Matrix, u, v Vector) { m.AddOuterScaled(1e-9, u, v) })
}

// The first-layer shapes of the MLPs the workloads train: MLP(32) and
// MLP(16) over 100 features, in the panel layout.
var panelShapes = [][2]int{{32, 100}, {16, 100}}

func benchPanelKernel(b *testing.B, kernel func(m *Matrix, u, v Vector)) {
	for _, s := range panelShapes {
		m, u, v := benchOperands(s[0], s[1])
		m.PackPanels(m.Clone().Data)
		b.Run(fmt.Sprintf("%dx%d", s[0], s[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernel(m, u, v)
			}
		})
	}
}

func BenchmarkPanelMulVec(b *testing.B) {
	benchPanelKernel(b, func(m *Matrix, u, v Vector) { m.PanelMulVec(v, u) })
}

// The update uses u as its scales and writes the product to u's twin, so
// successive calls do not feed each other. The tiny alpha keeps the
// weights bounded over b.N updates.
func BenchmarkPanelAddOuterMulVec(b *testing.B) {
	var dst Vector
	benchPanelKernel(b, func(m *Matrix, u, v Vector) {
		if len(dst) != len(u) {
			dst = NewVector(len(u))
		}
		m.PanelAddOuterMulVec(1e-9, u, v, v, dst)
	})
}
