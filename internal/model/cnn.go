package model

import (
	"math/rand"
	"slices"

	"fedshap/internal/combin"
	"fedshap/internal/dataset"
	"fedshap/internal/tensor"
)

// CNN is a small convolutional classifier — conv(3×3, F filters, valid
// padding) → ReLU → 2×2 max-pool → dense softmax — the "CNN" model of the
// paper's evaluation, scaled to the synthetic image sizes this repo uses.
// Training is per-sample SGD backprop through all layers.
type CNN struct {
	ImgW, ImgH int
	Filters    int
	Classes    int

	// Conv layer: Filters kernels of 3×3 plus bias.
	K *tensor.Matrix // Filters × 9
	// KB is the per-filter bias.
	KB tensor.Vector
	// Dense layer over the pooled feature map.
	W *tensor.Matrix // Classes × featDim
	B tensor.Vector

	convW, convH int // conv output spatial size
	poolW, poolH int // pooled output spatial size
	featDim      int

	// scratch
	conv    tensor.Vector // Filters*convW*convH
	pooled  tensor.Vector // featDim
	poolArg []int         // argmax index into conv for each pooled cell
	logits  tensor.Vector
	dPool   tensor.Vector
	perm    []int
}

const cnnKernel = 3

// NewCNN constructs the convolutional model for imgW×imgH inputs.
func NewCNN(imgW, imgH, filters, classes int, seed int64) *CNN {
	m := newCNN(imgW, imgH, filters, classes)
	rng := rand.New(rand.NewSource(seed))
	m.K.GaussianInit(0.3, rng)
	m.W.XavierInit(rng)
	return m
}

// newCNN allocates a zero-parameter CNN of the given shape.
func newCNN(imgW, imgH, filters, classes int) *CNN {
	if imgW < cnnKernel || imgH < cnnKernel {
		panic("model: CNN image smaller than kernel")
	}
	convW, convH := imgW-cnnKernel+1, imgH-cnnKernel+1
	poolW, poolH := (convW+1)/2, (convH+1)/2
	featDim := filters * poolW * poolH
	return &CNN{
		ImgW: imgW, ImgH: imgH, Filters: filters, Classes: classes,
		K:  tensor.NewMatrix(filters, cnnKernel*cnnKernel),
		KB: tensor.NewVector(filters),
		W:  tensor.NewMatrix(classes, featDim),
		B:  tensor.NewVector(classes),

		convW: convW, convH: convH, poolW: poolW, poolH: poolH,
		featDim: featDim,
		conv:    tensor.NewVector(filters * convW * convH),
		pooled:  tensor.NewVector(featDim),
		poolArg: make([]int, featDim),
		logits:  tensor.NewVector(classes),
		dPool:   tensor.NewVector(featDim),
	}
}

// forward runs the network on x (row-major imgH×imgW pixels), filling the
// scratch buffers and returning class probabilities.
func (m *CNN) forward(x tensor.Vector) tensor.Vector {
	// Convolution + ReLU.
	for f := 0; f < m.Filters; f++ {
		k := m.K.Row(f)
		base := f * m.convW * m.convH
		for oy := 0; oy < m.convH; oy++ {
			for ox := 0; ox < m.convW; ox++ {
				var s float64
				for ky := 0; ky < cnnKernel; ky++ {
					xo := (oy+ky)*m.ImgW + ox
					ko := ky * cnnKernel
					s += k[ko]*x[xo] + k[ko+1]*x[xo+1] + k[ko+2]*x[xo+2]
				}
				m.conv[base+oy*m.convW+ox] = tensor.ReLU(s + m.KB[f])
			}
		}
	}
	// 2×2 max-pool (ceil at borders), recording argmax for backprop.
	for f := 0; f < m.Filters; f++ {
		base := f * m.convW * m.convH
		pbase := f * m.poolW * m.poolH
		for py := 0; py < m.poolH; py++ {
			for px := 0; px < m.poolW; px++ {
				bestIdx := base + (2*py)*m.convW + 2*px
				best := m.conv[bestIdx]
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						cy, cx := 2*py+dy, 2*px+dx
						if cy >= m.convH || cx >= m.convW {
							continue
						}
						idx := base + cy*m.convW + cx
						if m.conv[idx] > best {
							best, bestIdx = m.conv[idx], idx
						}
					}
				}
				p := pbase + py*m.poolW + px
				m.pooled[p] = best
				m.poolArg[p] = bestIdx
			}
		}
	}
	// Dense softmax head.
	m.W.MulVec(m.pooled, m.logits)
	for c := range m.logits {
		m.logits[c] += m.B[c]
	}
	return tensor.Softmax(m.logits, m.logits)
}

// Score returns class probabilities for x.
func (m *CNN) Score(x tensor.Vector) tensor.Vector {
	return m.forward(x).Clone()
}

// PredictClass implements Classifier without the per-sample copy Score pays.
func (m *CNN) PredictClass(x tensor.Vector) int {
	return predictedClass(m.forward(x))
}

// Clone returns a deep copy.
func (m *CNN) Clone() Model {
	c := newCNN(m.ImgW, m.ImgH, m.Filters, m.Classes)
	copy(c.K.Data, m.K.Data)
	copy(c.KB, m.KB)
	copy(c.W.Data, m.W.Data)
	copy(c.B, m.B)
	return c
}

// NumParams returns the total trainable parameter count.
func (m *CNN) NumParams() int {
	return len(m.K.Data) + len(m.KB) + len(m.W.Data) + len(m.B)
}

// Params returns the flattened [K, KB, W, B].
func (m *CNN) Params() tensor.Vector { return m.AppendParams(nil) }

// AppendParams appends the flattened [K, KB, W, B] to dst.
func (m *CNN) AppendParams(dst tensor.Vector) tensor.Vector {
	dst = slices.Grow(dst, m.NumParams())
	dst = append(dst, m.K.Data...)
	dst = append(dst, m.KB...)
	dst = append(dst, m.W.Data...)
	return append(dst, m.B...)
}

// SetParams restores parameters from a flat vector.
func (m *CNN) SetParams(p tensor.Vector) {
	if len(p) != m.NumParams() {
		panic("model: CNN.SetParams length mismatch")
	}
	o := 0
	o += copy(m.K.Data, p[o:o+len(m.K.Data)])
	o += copy(m.KB, p[o:o+len(m.KB)])
	o += copy(m.W.Data, p[o:o+len(m.W.Data)])
	copy(m.B, p[o:])
}

// TrainEpoch runs one epoch of per-sample SGD backprop.
func (m *CNN) TrainEpoch(ds *dataset.Dataset, lr float64, rng *rand.Rand) {
	m.perm = combin.PermInto(rng, ds.Len(), m.perm)
	for _, i := range m.perm {
		x := ds.X.Row(i)
		// Dense head gradient, and backprop into pooled features (needs W
		// before its update).
		g := crossEntropyGrad(m.forward(x), ds.Y[i])
		m.W.MulVecT(g, m.dPool)
		m.B.AddScaled(-lr, g)
		m.W.AddOuterScaled(-lr, g, m.pooled)
		// Through max-pool (route to argmax) and ReLU gate into kernels.
		for f := 0; f < m.Filters; f++ {
			pbase := f * m.poolW * m.poolH
			base := f * m.convW * m.convH
			k := m.K.Row(f)
			for p := 0; p < m.poolW*m.poolH; p++ {
				g := m.dPool[pbase+p]
				if g == 0 {
					continue
				}
				convIdx := m.poolArg[pbase+p]
				if m.conv[convIdx] <= 0 {
					continue // ReLU inactive
				}
				rel := convIdx - base
				oy, ox := rel/m.convW, rel%m.convW
				for ky := 0; ky < cnnKernel; ky++ {
					xo := (oy+ky)*m.ImgW + ox
					ko := ky * cnnKernel
					k[ko] -= lr * g * x[xo]
					k[ko+1] -= lr * g * x[xo+1]
					k[ko+2] -= lr * g * x[xo+2]
				}
				m.KB[f] -= lr * g
			}
		}
	}
}
