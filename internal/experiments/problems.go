// Package experiments reproduces the paper's evaluation section: it builds
// the benchmark valuation problems (synthetic-MNIST setups (a)-(e),
// FEMNIST-like, Adult-like), runs every compared algorithm under the
// paper's budget policy (Table III), and regenerates the rows and series of
// each table and figure. ARCHITECTURE.md (Paper experiment map) maps
// experiment ids to the runners here.
package experiments

import (
	"fmt"
	"math/rand"

	"fedshap/internal/combin"
	"fedshap/internal/dataset"
	"fedshap/internal/fl"
	"fedshap/internal/model"
	"fedshap/internal/utility"
)

// Scale controls the computational size of every experiment so the same
// code serves fast unit benches and full table regeneration.
type Scale struct {
	// PerClient is the training-sample count per FL client.
	PerClient int
	// TestSamples is the shared test-set size.
	TestSamples int
	// Rounds and LocalEpochs configure FedAvg.
	Rounds      int
	LocalEpochs int
	// Hidden is the MLP hidden width; Filters the CNN filter count.
	Hidden  int
	Filters int
	// XGBRounds is the boosting-round count for tree models.
	XGBRounds int
	// Reps is the repetition count for variance/Pareto experiments.
	Reps int
}

// Tiny is sized for unit tests and `go test -bench` — a full Table IV row
// completes in seconds.
func Tiny() Scale {
	return Scale{
		PerClient: 30, TestSamples: 120,
		Rounds: 2, LocalEpochs: 1,
		Hidden: 8, Filters: 3, XGBRounds: 6,
		Reps: 5,
	}
}

// Small is the default for the CLI tools: big enough that utility curves
// are smooth, small enough for a laptop.
func Small() Scale {
	return Scale{
		PerClient: 60, TestSamples: 300,
		Rounds: 3, LocalEpochs: 1,
		Hidden: 16, Filters: 4, XGBRounds: 10,
		Reps: 20,
	}
}

// ModelKind names the FL model families of the paper's evaluation.
type ModelKind string

// The model families compared in Tables IV-V and Figs. 6-10.
const (
	MLP ModelKind = "MLP"
	CNN ModelKind = "CNN"
	XGB ModelKind = "XGB"
	// LogReg is an extra fast family used by tests and the quickstart.
	LogReg ModelKind = "LogReg"
	// DeepMLP is a two-hidden-layer extension beyond the paper's models.
	DeepMLP ModelKind = "DeepMLP"
)

// Problem is a fully specified valuation problem: the federation, the test
// set, the model family and the FL configuration.
type Problem struct {
	// Name describes the dataset/setup/model combination.
	Name string
	// N is the number of FL clients.
	N int
	// Spec carries everything an algorithm needs to train and evaluate.
	Spec *utility.FLSpec
	// FreeRiders lists clients with deliberately empty datasets (Fig. 9).
	FreeRiders []int
	// DuplicateGroups lists client groups holding identical datasets
	// (Fig. 9 symmetric-fairness proxy).
	DuplicateGroups [][]int

	// customEval, when set, overrides the standard FL-training evaluation
	// (used by the linear-regression theory experiments, which evaluate
	// coalitions by closed-form OLS).
	customEval utility.EvalFunc
}

// Oracle returns a fresh utility oracle for the problem. Every algorithm
// run gets its own oracle so time and budget accounting are independent.
func (p *Problem) Oracle() *utility.Oracle {
	return utility.NewOracle(p.N, p.Eval())
}

// Eval returns the evaluation function Oracle memoises — FL training on
// the spec (utility.NewFLEval, with arenas of its own per call) unless the
// problem evaluates coalitions some other way — for a caller that owns
// its oracle.
func (p *Problem) Eval() utility.EvalFunc {
	if p.customEval != nil {
		return p.customEval
	}
	return utility.NewFLEval(*p.Spec)
}

// NewFuncProblem builds a problem whose utilities come from an arbitrary
// function instead of FL training — synthetic cooperative games, closed-form
// oracles and valuation-service tests use it. Spec stays nil, so
// gradient-based baselines report ErrNeedsSpec on such problems.
func NewFuncProblem(name string, n int, eval func(combin.Coalition) float64) *Problem {
	return &Problem{Name: name, N: n, customEval: eval}
}

// factory builds the model constructor for a family over a given input
// dimensionality and class count.
func factory(kind ModelKind, dim, classes, imgW, imgH int, sc Scale) model.Factory {
	switch kind {
	case MLP:
		return func(seed int64) model.Model { return model.NewMLP(dim, sc.Hidden, classes, seed) }
	case CNN:
		return func(seed int64) model.Model { return model.NewCNN(imgW, imgH, sc.Filters, classes, seed) }
	case XGB:
		cfg := model.DefaultXGBConfig()
		cfg.Rounds = sc.XGBRounds
		return func(seed int64) model.Model { return model.NewXGB(classes, cfg, seed) }
	case LogReg:
		return func(seed int64) model.Model { return model.NewLogReg(dim, classes, seed) }
	case DeepMLP:
		h2 := sc.Hidden / 2
		if h2 < 2 {
			h2 = 2
		}
		return func(seed int64) model.Model {
			return model.NewDeepMLP([]int{dim, sc.Hidden, h2, classes}, seed)
		}
	default:
		panic(fmt.Sprintf("experiments: unknown model kind %q", kind))
	}
}

// flConfig builds the FedAvg configuration for a scale.
func flConfig(sc Scale, seed int64) fl.Config {
	return fl.Config{
		Rounds: sc.Rounds, LocalEpochs: sc.LocalEpochs,
		LR: 0.05, Seed: seed, WeightBySize: true,
	}
}

// FEMNISTName is the Name of NewFEMNISTProblem's problem, for a caller
// that names a problem it has not built.
func FEMNISTName(n int, kind ModelKind) string {
	return fmt.Sprintf("FEMNIST-like/n=%d/%s", n, kind)
}

// AdultName is the Name of NewAdultProblem's problem.
func AdultName(n int, kind ModelKind) string {
	return fmt.Sprintf("Adult-like/n=%d/%s", n, kind)
}

// SyntheticName is the Name of NewSyntheticProblem's problem.
func SyntheticName(setup SyntheticSetup, n int, kind ModelKind) string {
	return fmt.Sprintf("synthetic/%s/n=%d/%s", setup, n, kind)
}

// NewFEMNISTProblem builds the FEMNIST-like writer-partitioned problem of
// Tables IV and Figs. 1(b), 4, 7-10.
func NewFEMNISTProblem(n int, kind ModelKind, sc Scale, seed int64) *Problem {
	cfg := dataset.DefaultFEMNISTLike(n, sc.PerClient, seed)
	cfg.TestSamples = sc.TestSamples
	clients, test := dataset.FEMNISTLike(cfg)
	spec := &utility.FLSpec{
		Factory: factory(kind, clients[0].Dim(), cfg.Classes, cfg.Width, cfg.Height, sc),
		Clients: clients,
		Test:    test,
		Config:  flConfig(sc, seed+1),
		Metric:  model.Accuracy,
	}
	return &Problem{
		Name: FEMNISTName(n, kind),
		N:    n,
		Spec: spec,
	}
}

// NewAdultProblem builds the Adult-like occupation-partitioned tabular
// problem of Table V.
func NewAdultProblem(n int, kind ModelKind, sc Scale, seed int64) *Problem {
	cfg := dataset.DefaultAdultLike(n*sc.PerClient+sc.TestSamples, seed)
	pool, occ := dataset.AdultLike(cfg)
	rng := rand.New(rand.NewSource(seed + 2))
	// Hold out a test split, partition the rest by occupation.
	perm := rng.Perm(pool.Len())
	testIdx, trainIdx := perm[:sc.TestSamples], perm[sc.TestSamples:]
	test := pool.Subset("adult-like/test", testIdx)
	train := pool.Subset("adult-like/train", trainIdx)
	trainOcc := make([]int, len(trainIdx))
	for i, idx := range trainIdx {
		trainOcc[i] = occ[idx]
	}
	clients := dataset.PartitionByKey(train, trainOcc, n)
	spec := &utility.FLSpec{
		Factory: factory(kind, pool.Dim(), pool.NumClasses, 0, 0, sc),
		Clients: clients,
		Test:    test,
		Config:  flConfig(sc, seed+3),
		Metric:  model.Accuracy,
	}
	return &Problem{
		Name: AdultName(n, kind),
		N:    n,
		Spec: spec,
	}
}

// NewCSVProblem partitions a labelled pool, such as a user's CSV file, into
// an IID federation of n clients with a held-out 20 % test split. Only a
// pool that carries an image shape can train the CNN.
func NewCSVProblem(name string, pool *dataset.Dataset, n int, kind ModelKind, sc Scale, seed int64) (*Problem, error) {
	if kind == CNN && (pool.ImageW == 0 || pool.ImageH == 0) {
		return nil, fmt.Errorf("model %s needs an image shape (width × height) and %s has none", kind, name)
	}
	rng := rand.New(rand.NewSource(seed))
	train, test := pool.Split(0.8, rng)
	spec := &utility.FLSpec{
		Factory: factory(kind, pool.Dim(), pool.NumClasses, pool.ImageW, pool.ImageH, sc),
		Clients: dataset.PartitionEqualIID(train, n, rng),
		Test:    test,
		Config:  flConfig(sc, seed),
		Metric:  model.Accuracy,
	}
	return &Problem{
		Name: fmt.Sprintf("csv:%s/n=%d/%s", name, n, kind),
		N:    n,
		Spec: spec,
	}, nil
}

// SyntheticSetup identifies the five partitioning setups of Fig. 6.
type SyntheticSetup string

// The Fig. 6 setups.
const (
	SameSizeSameDist  SyntheticSetup = "same-size-same-distr"
	SameSizeDiffDist  SyntheticSetup = "same-size-diff-distr"
	DiffSizeSameDist  SyntheticSetup = "diff-size-same-distr"
	SameSizeNoisyLbl  SyntheticSetup = "same-size-noisy-label"
	SameSizeNoisyFeat SyntheticSetup = "same-size-noisy-feature"
)

// AllSyntheticSetups lists the Fig. 6 setups in paper order.
func AllSyntheticSetups() []SyntheticSetup {
	return []SyntheticSetup{
		SameSizeSameDist, SameSizeDiffDist, DiffSizeSameDist,
		SameSizeNoisyLbl, SameSizeNoisyFeat,
	}
}

// NewSyntheticProblem builds one of the Fig. 6 synthetic-MNIST problems.
// noise configures setups (d) and (e): the label-flip fraction or the
// feature-noise scale (both 0.0-0.2 in the paper); it is ignored by the
// other setups. Noise is applied to half the clients so that client values
// differentiate, mirroring the paper's per-client quality variation.
func NewSyntheticProblem(setup SyntheticSetup, n int, kind ModelKind, sc Scale, noise float64, seed int64) *Problem {
	imgCfg := dataset.DefaultSynthImages(n*sc.PerClient+sc.TestSamples, seed)
	pool := dataset.SynthImages(imgCfg)
	rng := rand.New(rand.NewSource(seed + 4))
	train, test := pool.Split(1-float64(sc.TestSamples)/float64(pool.Len()), rng)

	var clients []*dataset.Dataset
	switch setup {
	case SameSizeSameDist:
		clients = dataset.PartitionEqualIID(train, n, rng)
	case SameSizeDiffDist:
		clients = dataset.PartitionLabelSkew(train, n, 0.7, rng)
	case DiffSizeSameDist:
		clients = dataset.PartitionBySizeRatio(train, n, rng)
	case SameSizeNoisyLbl:
		clients = dataset.PartitionEqualIID(train, n, rng)
		for i := n / 2; i < n; i++ {
			dataset.AddLabelNoise(clients[i], noise, rng)
		}
	case SameSizeNoisyFeat:
		clients = dataset.PartitionEqualIID(train, n, rng)
		for i := n / 2; i < n; i++ {
			dataset.AddFeatureNoise(clients[i], noise, rng)
		}
	default:
		panic(fmt.Sprintf("experiments: unknown setup %q", setup))
	}

	spec := &utility.FLSpec{
		Factory: factory(kind, pool.Dim(), pool.NumClasses, imgCfg.Width, imgCfg.Height, sc),
		Clients: clients,
		Test:    test,
		Config:  flConfig(sc, seed+5),
		Metric:  model.Accuracy,
	}
	return &Problem{
		Name: SyntheticName(setup, n, kind),
		N:    n,
		Spec: spec,
	}
}

// NewScalabilityProblem builds the Fig. 9 large-federation problem:
// 5% of clients are free riders (empty datasets) and 5% duplicate another
// client's dataset, so property proxies can replace infeasible ground
// truth.
func NewScalabilityProblem(n int, kind ModelKind, sc Scale, seed int64) *Problem {
	cfg := dataset.DefaultFEMNISTLike(n, sc.PerClient, seed)
	cfg.TestSamples = sc.TestSamples
	clients, test := dataset.FEMNISTLike(cfg)

	nRiders := n / 20
	if nRiders < 1 {
		nRiders = 1
	}
	nDups := n / 20
	if nDups < 1 {
		nDups = 1
	}
	var freeRiders []int
	var dupGroups [][]int
	// Final nRiders clients become free riders; the nDups before them
	// duplicate client 0, 1, ... respectively.
	for i := 0; i < nRiders; i++ {
		idx := n - 1 - i
		clients[idx] = clients[idx].Empty(fmt.Sprintf("free-rider-%d", i))
		freeRiders = append(freeRiders, idx)
	}
	for i := 0; i < nDups; i++ {
		idx := n - 1 - nRiders - i
		src := i % (n - nRiders - nDups)
		clients[idx] = clients[src].Clone()
		dupGroups = append(dupGroups, []int{src, idx})
	}

	spec := &utility.FLSpec{
		Factory: factory(kind, clients[0].Dim(), cfg.Classes, cfg.Width, cfg.Height, sc),
		Clients: clients,
		Test:    test,
		Config:  flConfig(sc, seed+6),
		Metric:  model.Accuracy,
	}
	return &Problem{
		Name:            fmt.Sprintf("scalability/n=%d/%s", n, kind),
		N:               n,
		Spec:            spec,
		FreeRiders:      freeRiders,
		DuplicateGroups: dupGroups,
	}
}
