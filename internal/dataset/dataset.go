// Package dataset provides the data substrate for federated valuation:
// an in-memory labelled dataset type, synthetic generators standing in for
// the paper's benchmark corpora (MNIST, FEMNIST, Adult, Sent-140 — see
// ARCHITECTURE.md, Paper experiment map, for the substitution
// rationale), the five federated partitioning setups of the paper's
// Fig. 6, and the label/feature noise injectors used in setups (d) and (e).
package dataset

import (
	"fmt"
	"math/rand"

	"fedshap/internal/tensor"
)

// Dataset is an in-memory supervised dataset: a row-major feature matrix and
// integer class labels. Image datasets additionally carry their spatial
// shape so convolutional models can interpret rows as W×H grids.
type Dataset struct {
	// Name identifies the dataset (for logs and experiment reports).
	Name string
	// X holds one sample per row.
	X *tensor.Matrix
	// Y holds the class label of each row; len(Y) == X.Rows.
	Y []int
	// NumClasses is the number of distinct classes the task defines (labels
	// are in [0, NumClasses)). It is task-level metadata: a partition may
	// contain fewer observed classes.
	NumClasses int
	// ImageW, ImageH give the spatial shape for image data (0 for tabular).
	ImageW, ImageH int
}

// New allocates an empty dataset with capacity for n samples of d features.
func New(name string, n, d, numClasses int) *Dataset {
	return &Dataset{
		Name:       name,
		X:          tensor.NewMatrix(n, d),
		Y:          make([]int, n),
		NumClasses: numClasses,
	}
}

// Len returns the number of samples.
func (d *Dataset) Len() int {
	if d == nil || d.X == nil {
		return 0
	}
	return d.X.Rows
}

// Dim returns the feature dimensionality.
func (d *Dataset) Dim() int {
	if d == nil || d.X == nil {
		return 0
	}
	return d.X.Cols
}

// IsEmpty reports whether the dataset holds no samples (a "free rider" in
// valuation experiments).
func (d *Dataset) IsEmpty() bool { return d.Len() == 0 }

// Clone returns a deep copy, used to model duplicate data providers in the
// symmetric-fairness experiments (Fig. 9).
func (d *Dataset) Clone() *Dataset {
	out := New(d.Name, d.Len(), d.Dim(), d.NumClasses)
	copy(out.X.Data, d.X.Data)
	copy(out.Y, d.Y)
	out.ImageW, out.ImageH = d.ImageW, d.ImageH
	return out
}

// Empty returns a zero-sample dataset with the same schema as d.
func (d *Dataset) Empty(name string) *Dataset {
	out := New(name, 0, d.Dim(), d.NumClasses)
	out.ImageW, out.ImageH = d.ImageW, d.ImageH
	return out
}

// Subset returns the dataset restricted to the given row indices.
func (d *Dataset) Subset(name string, idx []int) *Dataset {
	out := New(name, len(idx), d.Dim(), d.NumClasses)
	out.ImageW, out.ImageH = d.ImageW, d.ImageH
	for r, i := range idx {
		copy(out.X.Row(r), d.X.Row(i))
		out.Y[r] = d.Y[i]
	}
	return out
}

// Merge concatenates datasets into a single training pool; it is how a
// coalition's combined dataset D_S = ∪_{i∈S} D_i is materialised. Empty
// inputs contribute nothing. Merge panics on schema mismatch.
func Merge(name string, parts ...*Dataset) *Dataset {
	total, dim, classes, w, h := 0, -1, 0, 0, 0
	for _, p := range parts {
		if p == nil || p.Len() == 0 {
			if p != nil && dim < 0 && p.Dim() > 0 {
				dim, classes, w, h = p.Dim(), p.NumClasses, p.ImageW, p.ImageH
			}
			continue
		}
		if dim < 0 {
			dim, classes, w, h = p.Dim(), p.NumClasses, p.ImageW, p.ImageH
		} else if p.Dim() != dim {
			panic(fmt.Sprintf("dataset: Merge dimension mismatch %d vs %d", p.Dim(), dim))
		}
		total += p.Len()
	}
	if dim < 0 {
		dim = 0
	}
	out := New(name, total, dim, classes)
	out.ImageW, out.ImageH = w, h
	r := 0
	for _, p := range parts {
		if p == nil {
			continue
		}
		for i := 0; i < p.Len(); i++ {
			copy(out.X.Row(r), p.X.Row(i))
			out.Y[r] = p.Y[i]
			r++
		}
	}
	return out
}

// Shuffle permutes samples in place.
func (d *Dataset) Shuffle(rng *rand.Rand) {
	n := d.Len()
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		swapRows(d.X, i, j)
		d.Y[i], d.Y[j] = d.Y[j], d.Y[i]
	}
}

func swapRows(m *tensor.Matrix, i, j int) {
	if i == j {
		return
	}
	ri, rj := m.Row(i), m.Row(j)
	for c := range ri {
		ri[c], rj[c] = rj[c], ri[c]
	}
}

// Split divides the dataset into a training and test portion; trainFrac is
// clamped to [0,1]. The split is deterministic given the RNG.
func (d *Dataset) Split(trainFrac float64, rng *rand.Rand) (train, test *Dataset) {
	if trainFrac < 0 {
		trainFrac = 0
	}
	if trainFrac > 1 {
		trainFrac = 1
	}
	n := d.Len()
	perm := rng.Perm(n)
	cut := int(float64(n) * trainFrac)
	return d.Subset(d.Name+"/train", perm[:cut]), d.Subset(d.Name+"/test", perm[cut:])
}
