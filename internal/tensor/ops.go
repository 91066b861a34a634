package tensor

import "math"

// Softmax writes the softmax of src into dst (may alias src) using the
// max-subtraction trick for numerical stability, and returns dst.
func Softmax(src, dst Vector) Vector {
	if dst == nil {
		dst = NewVector(len(src))
	}
	if len(src) == 0 {
		return dst
	}
	maxv := src[0]
	for _, x := range src[1:] {
		if x > maxv {
			maxv = x
		}
	}
	var sum float64
	for i, x := range src {
		e := math.Exp(x - maxv)
		dst[i] = e
		sum += e
	}
	inv := 1.0 / sum
	for i := range dst {
		dst[i] *= inv
	}
	return dst
}

// Sigmoid returns 1/(1+e^{-x}) computed stably for large |x|.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		return 1.0 / (1.0 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1.0 + e)
}

// ReLU returns max(0, x).
func ReLU(x float64) float64 {
	if x > 0 {
		return x
	}
	return 0
}

// Clip limits x to [-bound, bound].
func Clip(x, bound float64) float64 {
	if x > bound {
		return bound
	}
	if x < -bound {
		return -bound
	}
	return x
}
