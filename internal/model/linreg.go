package model

import (
	"math"
	"math/rand"
	"slices"

	"fedshap/internal/combin"
	"fedshap/internal/dataset"
	"fedshap/internal/tensor"
)

// LinReg is ordinary linear regression y ≈ w·x + b trained by SGD on squared
// loss. It is the model of the paper's theoretical analysis (Theorem 2,
// Lemma 1, Theorem 3), where utility = −MSE.
type LinReg struct {
	W tensor.Vector
	B float64

	perm []int // shuffle scratch reused across epochs
}

// NewLinReg returns a zero-initialised linear regressor over dim features.
// Zero init matches the "initialised model" m0 of Lemma 1.
func NewLinReg(dim int) *LinReg {
	return &LinReg{W: tensor.NewVector(dim)}
}

// Score returns the single-element prediction [w·x + b].
func (m *LinReg) Score(x tensor.Vector) tensor.Vector {
	return tensor.Vector{m.Predict(x)}
}

// Predict implements Regressor: w·x + b.
func (m *LinReg) Predict(x tensor.Vector) float64 { return m.W.Dot(x) + m.B }

// Clone returns a deep copy.
func (m *LinReg) Clone() Model {
	return &LinReg{W: m.W.Clone(), B: m.B}
}

// NumParams returns len(W)+1.
func (m *LinReg) NumParams() int { return len(m.W) + 1 }

// Params returns [W..., B].
func (m *LinReg) Params() tensor.Vector { return m.AppendParams(nil) }

// AppendParams appends [W..., B] to dst.
func (m *LinReg) AppendParams(dst tensor.Vector) tensor.Vector {
	dst = slices.Grow(dst, m.NumParams())
	dst = append(dst, m.W...)
	return append(dst, m.B)
}

// SetParams restores parameters from a flat vector.
func (m *LinReg) SetParams(p tensor.Vector) {
	if len(p) != m.NumParams() {
		panic("model: LinReg.SetParams length mismatch")
	}
	copy(m.W, p[:len(m.W)])
	m.B = p[len(m.W)]
}

// TrainEpoch runs one epoch of per-sample SGD on squared loss, interpreting
// dataset labels as real targets.
func (m *LinReg) TrainEpoch(ds *dataset.Dataset, lr float64, rng *rand.Rand) {
	m.perm = combin.PermInto(rng, ds.Len(), m.perm)
	for _, i := range m.perm {
		x := ds.X.Row(i)
		err := m.W.Dot(x) + m.B - float64(ds.Y[i])
		g := tensor.Clip(err, 1e6)
		m.W.AddScaled(-lr*g, x)
		m.B -= lr * g
	}
}

// FitOLS solves the least-squares problem exactly via the normal equations
// with ridge damping eps for conditioning, against real-valued targets.
// Used by the theory package to realise the Donahue–Kleinberg analysis model.
func (m *LinReg) FitOLS(X *tensor.Matrix, y []float64, eps float64) {
	d := X.Cols
	// Augmented design with intercept column: A is (d+1)×(d+1).
	a := tensor.NewMatrix(d+1, d+1)
	bvec := tensor.NewVector(d + 1)
	for i := 0; i < X.Rows; i++ {
		row := X.Row(i)
		for p := 0; p < d; p++ {
			for q := p; q < d; q++ {
				a.Data[p*(d+1)+q] += row[p] * row[q]
			}
			a.Data[p*(d+1)+d] += row[p]
			bvec[p] += row[p] * y[i]
		}
		a.Data[d*(d+1)+d]++
		bvec[d] += y[i]
	}
	// Mirror the upper triangle and damp the diagonal.
	for p := 0; p <= d; p++ {
		for q := 0; q < p; q++ {
			a.Data[p*(d+1)+q] = a.Data[q*(d+1)+p]
		}
		a.Data[p*(d+1)+p] += eps
	}
	sol := solveGaussian(a, bvec)
	copy(m.W, sol[:d])
	m.B = sol[d]
}

// solveGaussian solves A x = b by Gaussian elimination with partial
// pivoting, destroying A and b. Singular systems return the least-norm-ish
// solution of the damped system (callers damp the diagonal).
func solveGaussian(a *tensor.Matrix, b tensor.Vector) tensor.Vector {
	n := a.Rows
	for col := 0; col < n; col++ {
		// Partial pivot.
		piv := col
		best := math.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a.At(r, col)); v > best {
				best, piv = v, r
			}
		}
		if piv != col {
			for c := 0; c < n; c++ {
				ac, ap := a.At(col, c), a.At(piv, c)
				a.Set(col, c, ap)
				a.Set(piv, c, ac)
			}
			b[col], b[piv] = b[piv], b[col]
		}
		p := a.At(col, col)
		if p == 0 {
			continue
		}
		for r := col + 1; r < n; r++ {
			f := a.At(r, col) / p
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a.Set(r, c, a.At(r, c)-f*a.At(col, c))
			}
			b[r] -= f * b[col]
		}
	}
	x := tensor.NewVector(n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= a.At(r, c) * x[c]
		}
		if p := a.At(r, r); p != 0 {
			x[r] = s / p
		}
	}
	return x
}
