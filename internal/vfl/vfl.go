// Package vfl implements a vertical federated learning substrate for data
// valuation: providers hold disjoint *feature blocks* of the same sample
// population (bank features, telecom features, retail features, …), and a
// label holder coordinates training. The paper's evaluation is horizontal,
// but its Adult dataset "is commonly used in vertical FL" and the DIG-FL
// baseline explicitly covers both settings — this package extends the
// valuation machinery to that setting.
//
// The model is split multinomial logistic regression — the canonical
// vertical-FL architecture: each provider computes partial logits from its
// feature block, the coordinator sums them with a bias and applies softmax.
// Training a coalition S uses only S's feature blocks, so the utility
// oracle U(M_S) measures how much predictive power each provider's
// *features* contribute, and the Shapley machinery applies unchanged.
package vfl

import (
	"fmt"
	"math/rand"

	"fedshap/internal/combin"
	"fedshap/internal/dataset"
	"fedshap/internal/tensor"
	"fedshap/internal/utility"
)

// FeatureBlock is one provider's vertical slice: a contiguous range of
// feature columns.
type FeatureBlock struct {
	// Name identifies the provider.
	Name string
	// Start and Width give the column range [Start, Start+Width) in the
	// full design matrix.
	Start, Width int
}

// Problem is a vertical valuation problem: the full aligned design matrix,
// the labels, the provider blocks, and the training configuration.
type Problem struct {
	// Train and Test are the aligned datasets over the full feature space.
	Train, Test *dataset.Dataset
	// Blocks lists each provider's feature range; blocks must be disjoint
	// but need not cover all columns (uncovered columns belong to the
	// coordinator and are always available).
	Blocks []FeatureBlock
	// Epochs and LR configure the split-model SGD.
	Epochs int
	LR     float64
	Seed   int64
}

// Validate checks block disjointness and bounds.
func (p *Problem) Validate() error {
	if p.Train == nil || p.Test == nil {
		return fmt.Errorf("vfl: problem needs train and test data")
	}
	dim := p.Train.Dim()
	if p.Test.Dim() != dim {
		return fmt.Errorf("vfl: train dim %d != test dim %d", dim, p.Test.Dim())
	}
	covered := make([]bool, dim)
	for _, b := range p.Blocks {
		if b.Width <= 0 || b.Start < 0 || b.Start+b.Width > dim {
			return fmt.Errorf("vfl: block %q range [%d,%d) outside %d features",
				b.Name, b.Start, b.Start+b.Width, dim)
		}
		for c := b.Start; c < b.Start+b.Width; c++ {
			if covered[c] {
				return fmt.Errorf("vfl: feature column %d claimed by two blocks", c)
			}
			covered[c] = true
		}
	}
	return nil
}

// N returns the number of feature providers.
func (p *Problem) N() int { return len(p.Blocks) }

// splitLogReg is multinomial logistic regression whose active features are
// masked to a coalition's blocks.
type splitLogReg struct {
	w       *tensor.Matrix // classes × dim
	b       tensor.Vector
	classes int
	active  []bool // feature mask
	perm    []int  // the epoch's sample order, reused
}

func newSplitLogReg(dim, classes int, active []bool, seed int64) *splitLogReg {
	rng := rand.New(rand.NewSource(seed))
	m := &splitLogReg{
		w:       tensor.NewMatrix(classes, dim),
		b:       tensor.NewVector(classes),
		classes: classes,
		active:  active,
	}
	m.w.XavierInit(rng)
	// Zero out inactive columns so they contribute nothing.
	for c := 0; c < classes; c++ {
		row := m.w.Row(c)
		for j, a := range active {
			if !a {
				row[j] = 0
			}
		}
	}
	return m
}

func (m *splitLogReg) scores(x tensor.Vector, out tensor.Vector) tensor.Vector {
	if out == nil {
		out = tensor.NewVector(m.classes)
	}
	for c := 0; c < m.classes; c++ {
		row := m.w.Row(c)
		var s float64
		for j, a := range m.active {
			if a {
				s += row[j] * x[j]
			}
		}
		out[c] = s + m.b[c]
	}
	return tensor.Softmax(out, out)
}

func (m *splitLogReg) trainEpoch(ds *dataset.Dataset, lr float64, rng *rand.Rand) {
	probs := tensor.NewVector(m.classes)
	m.perm = combin.PermInto(rng, ds.Len(), m.perm)
	for _, i := range m.perm {
		x := ds.X.Row(i)
		m.scores(x, probs)
		y := ds.Y[i]
		for c := 0; c < m.classes; c++ {
			g := probs[c]
			if c == y {
				g -= 1
			}
			if g == 0 {
				continue
			}
			m.b[c] -= lr * g
			row := m.w.Row(c)
			for j, a := range m.active {
				if a {
					row[j] -= lr * g * x[j]
				}
			}
		}
	}
}

func (m *splitLogReg) accuracy(ds *dataset.Dataset) float64 {
	if ds.Len() == 0 {
		return 0
	}
	probs := tensor.NewVector(m.classes)
	correct := 0
	for i := 0; i < ds.Len(); i++ {
		if m.scores(ds.X.Row(i), probs).ArgMax() == ds.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len())
}

// Oracle builds the vertical utility oracle: U(M_S) is the test accuracy of
// the split model trained with only the feature blocks of providers in S
// (plus any coordinator-owned columns not claimed by any block).
func (p *Problem) Oracle() (*utility.Oracle, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	dim := p.Train.Dim()
	epochs := p.Epochs
	if epochs <= 0 {
		epochs = 3
	}
	lr := p.LR
	if lr <= 0 {
		lr = 0.1
	}
	// Coordinator-owned columns: not claimed by any block.
	baseActive := make([]bool, dim)
	for j := range baseActive {
		baseActive[j] = true
	}
	for _, b := range p.Blocks {
		for c := b.Start; c < b.Start+b.Width; c++ {
			baseActive[c] = false
		}
	}
	blocks := p.Blocks
	train, test := p.Train, p.Test
	seed := p.Seed
	return utility.NewOracle(len(blocks), func(s combin.Coalition) float64 {
		active := append([]bool(nil), baseActive...)
		for _, i := range s.Members() {
			b := blocks[i]
			for c := b.Start; c < b.Start+b.Width; c++ {
				active[c] = true
			}
		}
		m := newSplitLogReg(dim, train.NumClasses, active, seed)
		rng := rand.New(rand.NewSource(seed + 1))
		for e := 0; e < epochs; e++ {
			m.trainEpoch(train, lr, rng)
		}
		return m.accuracy(test)
	}), nil
}

// EqualBlocks partitions dim features into n contiguous blocks of (nearly)
// equal width, a convenience for building synthetic vertical problems.
func EqualBlocks(dim, n int) []FeatureBlock {
	if n <= 0 {
		return nil
	}
	out := make([]FeatureBlock, n)
	start := 0
	for i := 0; i < n; i++ {
		width := dim / n
		if i < dim%n {
			width++
		}
		out[i] = FeatureBlock{
			Name:  fmt.Sprintf("provider-%d", i),
			Start: start,
			Width: width,
		}
		start += width
	}
	return out
}
