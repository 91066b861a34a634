package fedshap

import (
	"fmt"
	"time"

	"fedshap/internal/shapley"
	"fedshap/internal/vfl"
)

// Vertical federated valuation: providers contribute feature *columns* of a
// shared sample population instead of sample rows. The same Valuer
// algorithms apply; the utility of a coalition is the accuracy of a split
// logistic model trained with only that coalition's feature blocks. An
// extension beyond the paper's horizontal evaluation (its DIG-FL baseline
// and the Adult dataset both come from the vertical-FL literature).

// FeatureBlock declares one vertical provider's feature-column range.
type FeatureBlock = vfl.FeatureBlock

// VerticalFederation is a feature-partitioned valuation problem.
type VerticalFederation struct {
	problem *vfl.Problem
}

// NewVerticalFederation builds a vertical federation over aligned train and
// test data. Blocks must be disjoint column ranges; columns not covered by
// any block are treated as coordinator-owned and always available.
func NewVerticalFederation(train, test *Dataset, blocks []FeatureBlock, opts ...VerticalOption) (*VerticalFederation, error) {
	p := &vfl.Problem{
		Train: train, Test: test, Blocks: blocks,
		Epochs: 3, LR: 0.1, Seed: 1,
	}
	for _, opt := range opts {
		opt(p)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &VerticalFederation{problem: p}, nil
}

// VerticalOption configures a VerticalFederation.
type VerticalOption func(*vfl.Problem)

// WithVerticalEpochs sets the split-model training epochs per coalition.
func WithVerticalEpochs(epochs int) VerticalOption {
	return func(p *vfl.Problem) { p.Epochs = epochs }
}

// WithVerticalLR sets the split-model learning rate.
func WithVerticalLR(lr float64) VerticalOption {
	return func(p *vfl.Problem) { p.LR = lr }
}

// WithVerticalSeed fixes the training seed.
func WithVerticalSeed(seed int64) VerticalOption {
	return func(p *vfl.Problem) { p.Seed = seed }
}

// N returns the number of feature providers.
func (v *VerticalFederation) N() int { return v.problem.N() }

// EqualFeatureBlocks splits dim feature columns into n near-equal provider
// blocks, for synthetic vertical scenarios.
func EqualFeatureBlocks(dim, n int) []FeatureBlock { return vfl.EqualBlocks(dim, n) }

// Value runs a valuation algorithm over the feature providers.
func (v *VerticalFederation) Value(alg Valuer, seed int64) (*Report, error) {
	oracle, err := v.problem.Oracle()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	values, _, err := shapley.RunPooled(&shapley.Context{}, oracle, alg, seed, 1)
	if err != nil {
		return nil, fmt.Errorf("fedshap: vertical %s: %w", alg.Name(), err)
	}
	names := make([]string, len(v.problem.Blocks))
	for i, b := range v.problem.Blocks {
		names[i] = b.Name
	}
	return &Report{
		Algorithm:   alg.Name(),
		Values:      values,
		Names:       names,
		Seconds:     time.Since(start).Seconds(),
		Evaluations: oracle.Evals(),
	}, nil
}
