package shapley

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"fedshap/internal/dataset"
	"fedshap/internal/fl"
	"fedshap/internal/model"
	"fedshap/internal/utility"
)

// goldenSamplers pins the budget-gated samplers; these rows pin what it does
// not — the exact definitional schemes, leave-one-out and the gradient-based
// baselines. They were recorded at commit 383c1b2 (PR 21), the commit before
// internal/shapley's copies of the MC-SV sum, the leave-one-out loop and the
// λ-MR round loop became one function each, so a reducer that adds in a
// different order than the copy it replaced turns a row red.
//
// Every hash is FNV-64a over the little-endian math.Float64bits of the
// values, as in TestGoldenSamplers.

func hashValues(h hash.Hash64, values Values) {
	var b [8]byte
	for _, x := range values {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

func skipUnlessAMD64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes were recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
}

// TestGoldenExact runs the exact schemes on goldenGame at n = 8 (8! walks
// keep ExactPerm affordable), folded over seeds 1..3.
func TestGoldenExact(t *testing.T) {
	skipUnlessAMD64(t)
	const n = 8
	for _, g := range []struct {
		alg  Valuer
		want uint64
	}{
		{ExactMC{}, 0xb1b385bcc4367887},
		{ExactCC{}, 0x21c8ae445e7599ae},
		{ExactPerm{}, 0xa43ad579facf9e63},
		{ExactBanzhaf{}, 0x2d3a73102463f311},
		{LeaveOneOut{}, 0x7fb2bfb16318d4ee},
	} {
		h := fnv.New64a()
		for seed := int64(1); seed <= 3; seed++ {
			o := utility.NewOracle(n, goldenGame(n, 1000+seed))
			values, err := Run(NewContext(o, seed), g.alg)
			if err != nil {
				t.Fatalf("%s seed=%d: %v", g.alg.Name(), seed, err)
			}
			hashValues(h, values)
		}
		if got := h.Sum64(); got != g.want {
			t.Errorf("%s: values hash %#016x, want %#016x", g.alg.Name(), got, g.want)
		}
	}
}

// trueClassScore is the mean score the model gives each test sample's own
// label: unlike accuracy (a count over 160 samples) it is continuous in the
// parameters, so every coalition's utility carries a full mantissa and a
// reassociated sum cannot round back onto the recorded bits.
func trueClassScore(m model.Model, ds *dataset.Dataset) float64 {
	var sum float64
	for i := 0; i < ds.Len(); i++ {
		sum += m.Score(ds.X.Row(i))[ds.Y[i]]
	}
	return sum / float64(ds.Len())
}

// goldenLogRegSpec is the baselines_test.go federation (FEMNIST-like
// writers, four classes, two FedAvg rounds) with a logistic regression
// scored by trueClassScore.
func goldenLogRegSpec() *utility.FLSpec {
	cfg := dataset.DefaultFEMNISTLike(4, 40, 19)
	cfg.Classes = 4
	clients, test := dataset.FEMNISTLike(cfg)
	return &utility.FLSpec{
		Factory: func(s int64) model.Model { return model.NewLogReg(clients[0].Dim(), 4, s) },
		Clients: clients,
		Test:    test,
		Config:  fl.Config{Rounds: 2, LocalEpochs: 1, LR: 0.05, Seed: 7, WeightBySize: true},
		Metric:  trueClassScore,
	}
}

// goldenXGBSpec is the tree federation of
// TestGradientBaselinesNotApplicableToXGB: no trace exists, so DIG-FL takes
// its leave-one-out retraining fallback.
func goldenXGBSpec() *utility.FLSpec {
	d, occ := dataset.AdultLike(dataset.DefaultAdultLike(200, 21))
	return &utility.FLSpec{
		Factory: func(s int64) model.Model { return model.NewXGB(2, model.DefaultXGBConfig(), s) },
		Clients: dataset.PartitionByKey(d, occ, 3),
		Test:    d,
		Config:  fl.DefaultConfig(7),
		Metric:  model.Accuracy,
	}
}

// TestGoldenGradient pins the gradient-based baselines on one seeded logreg
// federation (n = 4), DIG-FL's tree fallback on one XGB federation, and the
// per-round decomposition λ-MR aggregates.
func TestGoldenGradient(t *testing.T) {
	skipUnlessAMD64(t)
	logreg, xgb := goldenLogRegSpec(), goldenXGBSpec()
	for _, g := range []struct {
		name string
		alg  Valuer
		spec *utility.FLSpec
		want uint64
	}{
		{"or", OR{}, logreg, 0x6ea2a32a86306099},
		{"lambda-mr(1)", &LambdaMR{Lambda: 1}, logreg, 0x8531ad31b8f6e787},
		{"lambda-mr(0.5)", &LambdaMR{Lambda: 0.5}, logreg, 0x2d421efe6478201f},
		{"gtg-shapley", GTGShapley{}, logreg, 0x01a4648f0675e096},
		{"dig-fl", DIGFL{}, logreg, 0x310afc70e2f484ef},
		{"dig-fl/xgb", DIGFL{}, xgb, 0x38df027feef53ad2},
	} {
		values, err := Run(flContext(g.spec, 2), g.alg)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		h := fnv.New64a()
		hashValues(h, values)
		if got := h.Sum64(); got != g.want {
			t.Errorf("%s: values hash %#016x, want %#016x", g.name, got, g.want)
		}
	}

	rounds, err := PerRoundValues(logreg)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, values := range rounds {
		hashValues(h, values)
	}
	if got, want := h.Sum64(), uint64(0x309df127889147ac); got != want {
		t.Errorf("per-round: values hash %#016x, want %#016x", got, want)
	}
}
