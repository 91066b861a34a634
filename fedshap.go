// Package fedshap is a from-scratch Go implementation of Shapley-value data
// valuation for cross-silo federated learning, reproducing "Efficient Data
// Valuation Approximation in Federated Learning: A Sampling-based Approach"
// (Wei et al., ICDE 2025) — including the paper's IPSS algorithm, the
// unified stratified sampling framework, nine baseline valuation methods,
// and the complete federated-learning substrate (FedAvg, MLP/CNN/logistic/
// linear/gradient-boosted-tree models, synthetic federated datasets) needed
// to run them.
//
// The central object is a Federation: a set of named clients with local
// datasets, a shared test set, and an FL model family. Valuation algorithms
// (Valuer implementations) estimate each client's data value, defined as
// the Shapley value of the cooperative game whose utility U(M_S) is the
// test performance of the model federatedly trained on coalition S.
//
// Quick start:
//
//	fed, err := fedshap.NewFederation(
//	    fedshap.WithClients(clients...),
//	    fedshap.WithTestSet(test),
//	    fedshap.WithMLP(16),
//	)
//	report, err := fed.Value(fedshap.IPSS(32), 1)
//	// report.Values[i] is client i's data value.
package fedshap

import (
	"context"
	"errors"
	"fmt"
	"time"

	"fedshap/internal/combin"
	"fedshap/internal/dataset"
	"fedshap/internal/fl"
	"fedshap/internal/model"
	"fedshap/internal/shapley"
	"fedshap/internal/theory"
	"fedshap/internal/utility"
)

// Dataset is an in-memory supervised dataset (see NewDataset and the
// generators in this package for ways to build one).
type Dataset = dataset.Dataset

// Values holds one data value per client, ordered as the clients were
// registered.
type Values = shapley.Values

// Valuer is a data-valuation algorithm; see IPSS, ExactShapley, TMC, and
// the other constructors.
type Valuer = shapley.Valuer

// Coalition is a subset of clients, used by Federation.Utility.
type Coalition = []int

// Client is one data provider in the federation.
type Client struct {
	// Name identifies the client in reports.
	Name string
	// Data is the client's local training data; an empty dataset models a
	// free rider.
	Data *Dataset
}

// Federation is a configured valuation problem: clients, test set, model
// family and FL hyper-parameters.
type Federation struct {
	clients []Client
	test    *Dataset
	factory model.Factory
	config  fl.Config
	metric  utility.Metric
}

// Option configures a Federation.
type Option func(*Federation) error

// WithClients registers the data providers, in value-report order.
func WithClients(clients ...Client) Option {
	return func(f *Federation) error {
		f.clients = append(f.clients, clients...)
		return nil
	}
}

// WithDatasets registers providers named client-0, client-1, ... from bare
// datasets.
func WithDatasets(ds ...*Dataset) Option {
	return func(f *Federation) error {
		for i, d := range ds {
			f.clients = append(f.clients, Client{Name: fmt.Sprintf("client-%d", i), Data: d})
		}
		return nil
	}
}

// WithTestSet sets the shared held-out test data the utility function
// scores models on.
func WithTestSet(test *Dataset) Option {
	return func(f *Federation) error {
		f.test = test
		return nil
	}
}

// WithMLP selects a one-hidden-layer perceptron FL model.
func WithMLP(hidden int) Option {
	return func(f *Federation) error {
		if hidden < 1 {
			return errors.New("fedshap: MLP hidden width must be positive")
		}
		f.factory = func(seed int64) model.Model {
			return model.NewMLP(f.dim(), hidden, f.classes(), seed)
		}
		return nil
	}
}

// WithDeepMLP selects a multi-hidden-layer perceptron with the given hidden
// widths (an extension beyond the paper's single-hidden-layer MLP).
func WithDeepMLP(hidden ...int) Option {
	return func(f *Federation) error {
		if len(hidden) == 0 {
			return errors.New("fedshap: DeepMLP needs at least one hidden width")
		}
		for _, h := range hidden {
			if h < 1 {
				return errors.New("fedshap: DeepMLP hidden widths must be positive")
			}
		}
		f.factory = func(seed int64) model.Model {
			dims := append([]int{f.dim()}, hidden...)
			dims = append(dims, f.classes())
			return model.NewDeepMLP(dims, seed)
		}
		return nil
	}
}

// WithLogReg selects multinomial logistic regression (the fastest family).
func WithLogReg() Option {
	return func(f *Federation) error {
		f.factory = func(seed int64) model.Model {
			return model.NewLogReg(f.dim(), f.classes(), seed)
		}
		return nil
	}
}

// WithCNN selects a small convolutional model; datasets must carry an image
// shape.
func WithCNN(filters int) Option {
	return func(f *Federation) error {
		if filters < 1 {
			return errors.New("fedshap: CNN filter count must be positive")
		}
		f.factory = func(seed int64) model.Model {
			w, h := f.imageShape()
			return model.NewCNN(w, h, filters, f.classes(), seed)
		}
		return nil
	}
}

// WithXGB selects gradient-boosted trees. Gradient-based valuation
// baselines (OR, λ-MR, GTG-Shapley) are not applicable to this family.
func WithXGB(rounds, depth int) Option {
	return func(f *Federation) error {
		cfg := model.DefaultXGBConfig()
		if rounds > 0 {
			cfg.Rounds = rounds
		}
		if depth > 0 {
			cfg.Depth = depth
		}
		f.factory = func(seed int64) model.Model {
			return model.NewXGB(f.classes(), cfg, seed)
		}
		return nil
	}
}

// WithFedProx switches federated optimisation from FedAvg to FedProx with
// proximal coefficient mu, damping client drift under strongly non-IID
// data. Valuation is agnostic to the FL algorithm A (Def. 2), so every
// Valuer works unchanged.
func WithFedProx(mu float64) Option {
	return func(f *Federation) error {
		if mu <= 0 {
			return errors.New("fedshap: FedProx mu must be positive")
		}
		f.config.Algorithm = fl.FedProx
		f.config.ProxMu = mu
		return nil
	}
}

// WithFLRounds overrides the FedAvg round count.
func WithFLRounds(rounds int) Option {
	return func(f *Federation) error {
		if rounds < 1 {
			return errors.New("fedshap: FL rounds must be positive")
		}
		f.config.Rounds = rounds
		return nil
	}
}

// WithLearningRate overrides the client learning rate.
func WithLearningRate(lr float64) Option {
	return func(f *Federation) error {
		if lr <= 0 {
			return errors.New("fedshap: learning rate must be positive")
		}
		f.config.LR = lr
		return nil
	}
}

// WithSeed fixes the training seed (valuation is deterministic given seeds).
func WithSeed(seed int64) Option {
	return func(f *Federation) error {
		f.config.Seed = seed
		return nil
	}
}

// WithAccuracyUtility scores coalitions by test accuracy (the default).
func WithAccuracyUtility() Option {
	return func(f *Federation) error {
		f.metric = model.Accuracy
		return nil
	}
}

// WithNegMSEUtility scores coalitions by negative test MSE (the utility of
// the paper's linear-regression theory).
func WithNegMSEUtility() Option {
	return func(f *Federation) error {
		f.metric = model.NegMSE
		return nil
	}
}

// NewFederation validates and assembles a federation.
func NewFederation(opts ...Option) (*Federation, error) {
	f := &Federation{
		config: fl.DefaultConfig(1),
		metric: model.Accuracy,
	}
	// Apply data options first so model options can see dimensions.
	for _, opt := range opts {
		if err := opt(f); err != nil {
			return nil, err
		}
	}
	if len(f.clients) == 0 {
		return nil, errors.New("fedshap: federation needs at least one client")
	}
	if len(f.clients) > 127 {
		return nil, fmt.Errorf("fedshap: %d clients exceed the supported maximum of 127", len(f.clients))
	}
	if f.test == nil || f.test.Len() == 0 {
		return nil, errors.New("fedshap: federation needs a non-empty test set")
	}
	if f.factory == nil {
		hidden := 16
		f.factory = func(seed int64) model.Model {
			return model.NewMLP(f.dim(), hidden, f.classes(), seed)
		}
	}
	return f, nil
}

// N returns the number of clients.
func (f *Federation) N() int { return len(f.clients) }

// ClientNames returns the registered names in report order.
func (f *Federation) ClientNames() []string {
	names := make([]string, len(f.clients))
	for i, c := range f.clients {
		names[i] = c.Name
	}
	return names
}

func (f *Federation) dim() int { return f.test.Dim() }

func (f *Federation) classes() int { return f.test.NumClasses }

func (f *Federation) imageShape() (int, int) {
	if f.test.ImageW > 0 {
		return f.test.ImageW, f.test.ImageH
	}
	panic("fedshap: CNN model requires image-shaped datasets")
}

// spec assembles the internal FL specification.
func (f *Federation) spec() *utility.FLSpec {
	ds := make([]*Dataset, len(f.clients))
	for i, c := range f.clients {
		ds[i] = c.Data
	}
	return &utility.FLSpec{
		Factory: f.factory,
		Clients: ds,
		Test:    f.test,
		Config:  f.config,
		Metric:  f.metric,
	}
}

// Report is the outcome of one valuation run.
type Report struct {
	// Algorithm is the Valuer's display name.
	Algorithm string `json:"algorithm"`
	// Values holds one data value per client, in registration order.
	Values Values `json:"values"`
	// Names mirrors ClientNames for convenience.
	Names []string `json:"names"`
	// Seconds is the wall-clock cost, dominated by coalition training.
	Seconds float64 `json:"seconds"`
	// Evaluations is the number of distinct coalitions trained+evaluated.
	Evaluations int `json:"evaluations"`
	// Confidence is the simultaneous confidence level of the anytime
	// fields below; 0 when the job ran without anytime tracking.
	Confidence float64 `json:"confidence,omitempty"`
	// AnytimeValues are the tracker's final per-client estimates. For a
	// run that completed its plan they coincide with Values up to the
	// algorithm's own estimator; for an early-stopped run they ARE the
	// reported values.
	AnytimeValues []float64 `json:"anytime_values,omitempty"`
	// CILow/CIHigh bound each client's value simultaneously at
	// Confidence.
	CILow  []float64 `json:"ci_low,omitempty"`
	CIHigh []float64 `json:"ci_high,omitempty"`
	// EarlyStopped reports that sampling halted before the plan ran dry
	// because every pairwise ranking resolved at Confidence.
	EarlyStopped bool `json:"early_stopped,omitempty"`
	// BudgetUnspent is the part of the sampling budget γ an early stop
	// left unspent (0 otherwise).
	BudgetUnspent int `json:"budget_unspent,omitempty"`
}

// Value runs a valuation algorithm against a fresh utility oracle.
// The seed drives the algorithm's sampling decisions.
func (f *Federation) Value(alg Valuer, seed int64) (*Report, error) {
	return f.ValueCtx(context.Background(), alg, seed)
}

// ValueCtx is Value with cooperative cancellation: when ctx is cancelled
// the run stops before its next fresh coalition evaluation and returns an
// error satisfying errors.Is(err, context.Canceled). This is the
// entry point the valuation service (internal/valserve) builds on.
func (f *Federation) ValueCtx(ctx context.Context, alg Valuer, seed int64) (*Report, error) {
	return f.ValueParallelCtx(ctx, alg, seed, 1)
}

// ExactValues computes the ground-truth Shapley values (2ⁿ coalition
// trainings — use only for small federations).
func (f *Federation) ExactValues(seed int64) (*Report, error) {
	return f.Value(ExactShapley(), seed)
}

// ValueParallel is Value with concurrent coalition evaluation: the
// algorithm's deterministic evaluation plan — the full seeded sampling
// sequence for the sampling algorithms (IPSS, Stratified, CC-Shapley,
// Extended-GTB, MC-Banzhaf, Perm-MC, ...), the certain evaluation set
// otherwise — is trained on a bounded worker pool before the sequential
// valuation pass, which then reduces against a warm cache. Values are
// bit-identical to Value, and the number of coalition evaluations is
// unchanged; only wall-clock shrinks. workers <= 0 selects GOMAXPROCS;
// workers == 1 is the serial path — no plan is computed and no pool started
// (shapley.RunPooled owns the rule).
func (f *Federation) ValueParallel(alg Valuer, seed int64, workers int) (*Report, error) {
	return f.ValueParallelCtx(context.Background(), alg, seed, workers)
}

// ValueParallelCtx is ValueParallel with cooperative cancellation: the
// valuation context governs the evaluation pool too, so cancelling the run
// stops concurrent coalition training before the next fresh evaluation,
// not just the sequential pass.
func (f *Federation) ValueParallelCtx(ctx context.Context, alg Valuer, seed int64, workers int) (*Report, error) {
	spec := f.spec()
	oracle := utility.NewFLOracle(*spec)
	start := time.Now()
	values, _, err := shapley.RunPooled(&shapley.Context{Spec: spec, Ctx: ctx}, oracle, alg, seed, workers)
	if err != nil {
		return nil, fmt.Errorf("fedshap: %s: %w", alg.Name(), err)
	}
	return &Report{
		Algorithm:   alg.Name(),
		Values:      values,
		Names:       f.ClientNames(),
		Seconds:     time.Since(start).Seconds(),
		Evaluations: oracle.Evals(),
	}, nil
}

// Utility trains and evaluates the model for one explicit coalition —
// useful for inspecting the game a valuation runs on. A metric that
// diverges returns the oracle's *utility.NonFiniteError.
func (f *Federation) Utility(coalition Coalition) (float64, error) {
	u, err := f.Utilities([]Coalition{coalition}, 1)
	if err != nil {
		return 0, err
	}
	return u[0], nil
}

// Utilities is the batch companion of Utility: it trains and evaluates the
// given coalitions concurrently on a bounded worker pool (the same
// evaluation pool ValueParallel uses) and returns their utilities aligned
// with the input; duplicate coalitions are trained once. workers <= 0
// selects GOMAXPROCS. The first failed evaluation, such as a
// *utility.NonFiniteError from a diverging metric, is returned instead.
func (f *Federation) Utilities(coalitions []Coalition, workers int) ([]float64, error) {
	return f.UtilitiesCtx(context.Background(), coalitions, workers)
}

// UtilitiesCtx is Utilities with cooperative cancellation: when ctx is
// cancelled the pool stops starting trainings and the context's error is
// returned.
func (f *Federation) UtilitiesCtx(ctx context.Context, coalitions []Coalition, workers int) ([]float64, error) {
	spec := f.spec()
	oracle := utility.NewFLOracle(*spec)
	in := make([]combin.Coalition, len(coalitions))
	for i, c := range coalitions {
		in[i] = toCoalition(c)
	}
	return oracle.EvalBatch(ctx, in, workers)
}

// RecommendedGamma returns the paper's sampling budget policy for this
// federation size (Table III for n ∈ {3,6,10}, γ = ⌈n·ln n⌉ otherwise).
func (f *Federation) RecommendedGamma() int {
	return theory.GammaForN(f.N())
}
