// Package model implements the learning models used in the paper's
// evaluation — linear regression, one dense softmax network (Dense, whose
// zero-, one- and many-hidden-layer shapes are logistic regression, the
// paper's MLP and the DeepMLP), a small convolutional network, and
// gradient-boosted trees (the XGB stand-in) — each trained from scratch
// with stdlib-only code.
//
// Two training styles exist, mirroring how the paper's FL substrate treats
// them:
//
//   - Parametric models expose a flat parameter vector and per-epoch SGD,
//     which is what FedAvg aggregates and what the gradient-based valuation
//     baselines (OR, λ-MR, GTG-Shapley) reconstruct from.
//   - Fitter models (gradient-boosted trees) train holistically on a
//     dataset; federated boosting on shared histograms is equivalent to
//     fitting the merged coalition data, so the FL engine trains them
//     centrally and the gradient-based baselines are not applicable — the
//     "\" entries of the paper's Table V.
package model

import (
	"math"
	"math/rand"

	"fedshap/internal/dataset"
	"fedshap/internal/tensor"
)

// Model is anything that can score a sample. For classifiers Score returns
// per-class scores (argmax = prediction); for regressors it returns a
// single-element vector.
type Model interface {
	// Score returns the model output for one sample.
	Score(x tensor.Vector) tensor.Vector
	// Clone returns an independent deep copy.
	Clone() Model
}

// Parametric is a model trained by gradient steps over a flat parameter
// vector, suitable for FedAvg aggregation.
type Parametric interface {
	Model
	// Params returns a copy of the flattened trainable parameters.
	Params() tensor.Vector
	// AppendParams appends the flattened trainable parameters to dst and
	// returns the extended slice: Params without the allocation when dst
	// has the capacity, which is how a FedAvg round reads a client back.
	AppendParams(dst tensor.Vector) tensor.Vector
	// SetParams overwrites the trainable parameters from a flat vector.
	SetParams(p tensor.Vector)
	// NumParams returns the parameter count.
	NumParams() int
	// TrainEpoch runs one epoch of SGD on ds with the given learning rate.
	TrainEpoch(ds *dataset.Dataset, lr float64, rng *rand.Rand)
}

// Fitter is a model trained holistically (tree ensembles).
type Fitter interface {
	Model
	// Fit trains the model on the dataset from scratch.
	Fit(ds *dataset.Dataset)
}

// Factory constructs a freshly initialised model. Valuation trains one model
// per dataset coalition, so construction must be cheap and deterministic in
// the seed.
type Factory func(seed int64) Model

// Classifier is the allocation-free scoring fast path: PredictClass returns
// the argmax class for one sample without copying the score vector (Score
// must clone because callers may retain its result), or -1 when a score is
// NaN or ±Inf. Every classifier in this package implements it; Accuracy —
// the hot evaluation loop of the utility oracle — uses it when available.
// Like the model's other scratch state, PredictClass is not safe for
// concurrent use on one instance.
type Classifier interface {
	PredictClass(x tensor.Vector) int
}

// predictedClass is the argmax of scores (first on ties), or -1 when any
// score is NaN or ±Inf: a diverged model predicts no class, where ArgMax
// would pick class 0 out of an all-NaN vector.
func predictedClass(scores tensor.Vector) int {
	best := -1
	for i, s := range scores {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return -1
		}
		if best < 0 || s > scores[best] {
			best = i
		}
	}
	return best
}

// classifier returns m's class prediction function, the fast path when m
// has one.
func classifier(m Model) func(tensor.Vector) int {
	if c, ok := m.(Classifier); ok {
		return c.PredictClass
	}
	return func(x tensor.Vector) int { return predictedClass(m.Score(x)) }
}

// Regressor is Classifier's counterpart for single-output models: Predict
// returns Score(x)[0] without building the one-element vector. NegMSE and
// NegMSEFloat — the utility of the paper's linear-regression theory — use it
// when available.
type Regressor interface {
	Predict(x tensor.Vector) float64
}

// predictor returns m's scalar prediction function, the fast path when m
// has one.
func predictor(m Model) func(tensor.Vector) float64 {
	if r, ok := m.(Regressor); ok {
		return r.Predict
	}
	return func(x tensor.Vector) float64 { return m.Score(x)[0] }
}

// crossEntropyGrad turns softmax probabilities into the cross-entropy
// gradient with respect to the logits, p − onehot(y), in place. A label
// outside the model's classes has no one-hot entry to subtract, so such a
// sample pulls every class down instead of stopping the training.
func crossEntropyGrad(probs tensor.Vector, y int) tensor.Vector {
	if uint(y) < uint(len(probs)) {
		probs[y] -= 1
	}
	return probs
}

// Accuracy returns the fraction of samples whose argmax score matches the
// label — the paper's default utility function U(·). An empty test set
// yields 0. A model with a non-finite score on any sample has diverged and
// yields NaN, which the utility oracle refuses as a value, rather than the
// test set's share of class 0.
func Accuracy(m Model, ds *dataset.Dataset) float64 {
	if ds.Len() == 0 {
		return 0
	}
	predict := classifier(m)
	correct := 0
	for i := 0; i < ds.Len(); i++ {
		c := predict(ds.X.Row(i))
		if c < 0 {
			return math.NaN()
		}
		if c == ds.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len())
}

// NegMSE returns the negative mean squared error of a regressor against
// float-valued labels (Y reinterpreted as real targets) — the utility used
// in the paper's linear-regression theory (Lemma 1).
func NegMSE(m Model, ds *dataset.Dataset) float64 {
	if ds.Len() == 0 {
		return 0
	}
	predict := predictor(m)
	var sum float64
	for i := 0; i < ds.Len(); i++ {
		diff := predict(ds.X.Row(i)) - float64(ds.Y[i])
		sum += diff * diff
	}
	return -sum / float64(ds.Len())
}

// NegMSEFloat is NegMSE for real-valued targets supplied separately.
func NegMSEFloat(m Model, X *tensor.Matrix, y []float64) float64 {
	if X.Rows == 0 {
		return 0
	}
	predict := predictor(m)
	var sum float64
	for i := 0; i < X.Rows; i++ {
		diff := predict(X.Row(i)) - y[i]
		sum += diff * diff
	}
	return -sum / float64(X.Rows)
}
