package model

import (
	"sort"

	"fedshap/internal/dataset"
	"fedshap/internal/tensor"
)

// XGB is a gradient-boosted tree ensemble with the XGBoost second-order
// objective: per boosting round it fits one regression tree per class to the
// softmax gradients/hessians, with L2-regularised leaf weights and greedy
// exact split search. It is the "XGB" model of the paper's Table V.
//
// Trees are Fitters, not Parametrics: federated boosting on shared gradient
// histograms is equivalent to fitting the merged coalition data, and the
// gradient-reconstruction baselines are not applicable (the "\" cells of
// Table V).
type XGB struct {
	Rounds   int     // boosting rounds
	Depth    int     // maximum tree depth
	LR       float64 // shrinkage
	Lambda   float64 // L2 regularisation on leaf weights
	MinChild int     // minimum samples per leaf
	Classes  int
	Seed     int64

	trees [][]*regTree // [round][class]

	logits tensor.Vector // PredictClass scratch, lazily allocated
}

// XGBConfig collects the boosting hyper-parameters.
type XGBConfig struct {
	Rounds   int
	Depth    int
	LR       float64
	Lambda   float64
	MinChild int
}

// DefaultXGBConfig is sized for the repo's synthetic tabular workloads.
func DefaultXGBConfig() XGBConfig {
	return XGBConfig{Rounds: 12, Depth: 3, LR: 0.3, Lambda: 1.0, MinChild: 4}
}

// NewXGB constructs an untrained boosted ensemble.
func NewXGB(classes int, cfg XGBConfig, seed int64) *XGB {
	return &XGB{
		Rounds: cfg.Rounds, Depth: cfg.Depth, LR: cfg.LR,
		Lambda: cfg.Lambda, MinChild: cfg.MinChild,
		Classes: classes, Seed: seed,
	}
}

// Score returns softmax class probabilities for x.
func (m *XGB) Score(x tensor.Vector) tensor.Vector {
	logits := tensor.NewVector(m.Classes)
	for _, round := range m.trees {
		for c, t := range round {
			logits[c] += m.LR * t.predict(x)
		}
	}
	return tensor.Softmax(logits, logits)
}

// PredictClass implements Classifier: the same ensemble walk and softmax as
// Score, into a reused buffer.
func (m *XGB) PredictClass(x tensor.Vector) int {
	if cap(m.logits) < m.Classes {
		m.logits = tensor.NewVector(m.Classes)
	}
	logits := m.logits[:m.Classes]
	for c := range logits {
		logits[c] = 0
	}
	for _, round := range m.trees {
		for c, t := range round {
			logits[c] += m.LR * t.predict(x)
		}
	}
	return predictedClass(tensor.Softmax(logits, logits))
}

// Clone returns a copy sharing the (immutable once fitted) trees.
func (m *XGB) Clone() Model {
	c := *m
	c.trees = make([][]*regTree, len(m.trees))
	for i, r := range m.trees {
		c.trees[i] = append([]*regTree(nil), r...)
	}
	c.logits = nil // scratch must not be shared across instances
	return &c
}

// Fit trains the ensemble from scratch on ds.
func (m *XGB) Fit(ds *dataset.Dataset) {
	m.trees = nil
	n := ds.Len()
	if n == 0 {
		return
	}
	// Running logits F[i*classes+c].
	F := tensor.NewVector(n * m.Classes)
	probs := tensor.NewVector(m.Classes)
	g := tensor.NewVector(n)
	h := tensor.NewVector(n)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sc := &fitScratch{}

	for round := 0; round < m.Rounds; round++ {
		roundTrees := make([]*regTree, m.Classes)
		for c := 0; c < m.Classes; c++ {
			// Softmax gradients for class c at current F.
			for i := 0; i < n; i++ {
				tensor.Softmax(F[i*m.Classes:(i+1)*m.Classes], probs)
				p := probs[c]
				yi := 0.0
				if ds.Y[i] == c {
					yi = 1.0
				}
				g[i] = p - yi
				h[i] = p * (1 - p)
				if h[i] < 1e-6 {
					h[i] = 1e-6
				}
			}
			t := m.fitTree(ds, idx, g, h, sc)
			roundTrees[c] = t
			// Update logits with the new tree.
			for i := 0; i < n; i++ {
				F[i*m.Classes+c] += m.LR * t.predict(ds.X.Row(i))
			}
		}
		m.trees = append(m.trees, roundTrees)
	}
}

// regTree is a binary regression tree stored as a node slice.
type regTree struct {
	nodes []treeNode
}

type treeNode struct {
	feature   int     // split feature, -1 for leaf
	threshold float64 // go left if x[feature] < threshold
	left      int     // child indices
	right     int
	value     float64 // leaf weight
}

func (t *regTree) predict(x tensor.Vector) float64 {
	i := 0
	for {
		nd := &t.nodes[i]
		if nd.feature < 0 {
			return nd.value
		}
		if x[nd.feature] < nd.threshold {
			i = nd.left
		} else {
			i = nd.right
		}
	}
}

// fitScratch holds the buffers one Fit reuses across every tree and node:
// the per-tree working copy of the sample order, the split-scan sort buffer
// and the stable-partition spill buffer. A Fit is single-threaded, so one
// instance serves the whole recursion.
type fitScratch struct {
	order []int
	vals  []splitVal
	part  []int
}

// splitVal is one (feature value, gradient, hessian) triple of the sorted
// split sweep.
type splitVal struct{ v, g, h float64 }

// fitTree grows one tree greedily on gradient/hessian targets. idx is
// copied into the scratch order buffer first: grow partitions its segments
// in place, and every tree must start the scan from the same (identity)
// sample order for the gradient sums — and hence the fitted ensemble — to
// be independent of buffer reuse.
func (m *XGB) fitTree(ds *dataset.Dataset, idx []int, g, h tensor.Vector, sc *fitScratch) *regTree {
	sc.order = append(sc.order[:0], idx...)
	t := &regTree{}
	m.grow(t, ds, sc.order, g, h, 0, sc)
	return t
}

// grow recursively builds the subtree over the sample-index segment idx
// (owned by this call; child segments nest inside it) and returns its node
// index within t.
func (m *XGB) grow(t *regTree, ds *dataset.Dataset, idx []int, g, h tensor.Vector, depth int, sc *fitScratch) int {
	var gSum, hSum float64
	for _, i := range idx {
		gSum += g[i]
		hSum += h[i]
	}
	makeLeaf := func() int {
		t.nodes = append(t.nodes, treeNode{
			feature: -1,
			value:   -gSum / (hSum + m.Lambda),
		})
		return len(t.nodes) - 1
	}
	if depth >= m.Depth || len(idx) < 2*m.MinChild {
		return makeLeaf()
	}
	feat, thr, gain := m.bestSplit(ds, idx, g, h, gSum, hSum, sc)
	if gain <= 1e-9 {
		return makeLeaf()
	}
	// Stable in-place partition into a left and a right segment: relative
	// order is preserved in both halves (right spills through the scratch
	// buffer), so the children accumulate their gradient sums in exactly
	// the order the previous per-node slices did.
	nl := 0
	spill := sc.part[:0]
	for _, i := range idx {
		if ds.X.At(i, feat) < thr {
			idx[nl] = i
			nl++
		} else {
			spill = append(spill, i)
		}
	}
	copy(idx[nl:], spill)
	sc.part = spill[:0] // keep the grown capacity for the next node
	left, right := idx[:nl], idx[nl:]
	if len(left) < m.MinChild || len(right) < m.MinChild {
		return makeLeaf()
	}
	// Reserve this node, then grow children (their indices come after).
	self := len(t.nodes)
	t.nodes = append(t.nodes, treeNode{feature: feat, threshold: thr})
	l := m.grow(t, ds, left, g, h, depth+1, sc)
	r := m.grow(t, ds, right, g, h, depth+1, sc)
	t.nodes[self].left, t.nodes[self].right = l, r
	return self
}

// bestSplit scans every feature with an exact sorted sweep and returns the
// split maximising the XGBoost gain.
func (m *XGB) bestSplit(ds *dataset.Dataset, idx []int, g, h tensor.Vector, gSum, hSum float64, sc *fitScratch) (feature int, threshold, gain float64) {
	feature = -1
	parentScore := gSum * gSum / (hSum + m.Lambda)
	if cap(sc.vals) < len(idx) {
		sc.vals = make([]splitVal, len(idx))
	}
	vals := sc.vals[:len(idx)]
	for f := 0; f < ds.Dim(); f++ {
		for j, i := range idx {
			vals[j] = splitVal{ds.X.At(i, f), g[i], h[i]}
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a].v < vals[b].v })
		var gl, hl float64
		for j := 0; j < len(vals)-1; j++ {
			gl += vals[j].g
			hl += vals[j].h
			if vals[j].v == vals[j+1].v {
				continue // can't split between equal values
			}
			if j+1 < m.MinChild || len(vals)-j-1 < m.MinChild {
				continue
			}
			gr, hr := gSum-gl, hSum-hl
			score := gl*gl/(hl+m.Lambda) + gr*gr/(hr+m.Lambda) - parentScore
			if score > gain {
				gain = score
				feature = f
				threshold = (vals[j].v + vals[j+1].v) / 2
			}
		}
	}
	return feature, threshold, gain
}
