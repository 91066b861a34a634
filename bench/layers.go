package main

import (
	"context"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"fedshap"
	"fedshap/internal/combin"
	"fedshap/internal/fl"
	"fedshap/internal/metrics"
	"fedshap/internal/model"
	"fedshap/internal/shapley"
	"fedshap/internal/tensor"
	"fedshap/internal/utility"
)

// Layer probes: each times one layer's public functions alone, at the
// shapes mlp-cold uses, so a per-layer number means the same thing whatever
// workload the traced pass ran. They run once per traced pass, after the
// rounds, and cost about two seconds together.

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink float64

// perCall times fn over enough calls to fill about budget and returns the
// mean seconds per call; a probe loop, so a mean is all it can give.
func perCall(budget time.Duration, fn func()) float64 {
	calls := 1
	for {
		begin := time.Now()
		for i := 0; i < calls; i++ {
			fn()
		}
		if d := time.Since(begin); d >= budget/4 || calls >= 1<<24 {
			return d.Seconds() / float64(calls)
		}
		calls *= 4
	}
}

// medianOf runs fn reps times and returns the median seconds.
func medianOf(reps int, fn func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		begin := time.Now()
		fn()
		xs[i] = time.Since(begin).Seconds()
	}
	return median(xs)
}

const probeBudget = 100 * time.Millisecond

// probeLayers fills the workload-independent per-layer metrics.
func probeLayers(ctx context.Context, seed int64, dir string, out map[string]float64) error {
	var clients []*fedshap.Dataset
	var test *fedshap.Dataset
	out["dataset.generate_s"] = medianOf(5, func() {
		clients, test = fedshap.FederatedWriters(mlpClients, mlpPerClient, mlpTest, seed)
	})
	dim, classes := test.Dim(), test.NumClasses

	// tensor: the MLP's two weight shapes.
	rng := rand.New(rand.NewSource(seed))
	w1, w2 := tensor.NewMatrix(mlpHidden, dim), tensor.NewMatrix(classes, mlpHidden)
	w1.XavierInit(rng)
	w2.XavierInit(rng)
	x, h, g := tensor.NewVector(dim), tensor.NewVector(mlpHidden), tensor.NewVector(classes)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range g {
		g[i] = rng.NormFloat64()
	}
	out["tensor.mulvec_ns"] = 1e9 * perCall(probeBudget, func() { w1.MulVec(x, h) })
	out["tensor.mulvect_ns"] = 1e9 * perCall(probeBudget, func() { w2.MulVecT(g, h) })
	out["tensor.addouter_ns"] = 1e9 * perCall(probeBudget, func() { w1.AddOuterScaled(1e-9, h, x) })
	out["tensor.axpy_ns"] = 1e9 * perCall(probeBudget, func() { w1.Row(0).AddScaled(1e-9, x) })
	sink += h[0]
	// Computed from the shapes, not measured: one 32×100 MulVec.
	out["tensor.flops_per_call"] = float64(2 * mlpHidden * dim)
	out["tensor.bytes_per_call"] = float64(8 * (mlpHidden*dim + dim + mlpHidden))

	// model: one epoch on one client, one scoring of the test set.
	mlp := model.NewMLP(dim, mlpHidden, classes, seed)
	epochRNG := rand.New(rand.NewSource(seed))
	out["model.train_epoch_s"] = medianOf(21, func() { mlp.TrainEpoch(clients[0], 0.05, epochRNG) })
	out["model.accuracy_s"] = medianOf(21, func() { sink += model.Accuracy(mlp, test) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const allocEpochs = 20
	for i := 0; i < allocEpochs; i++ {
		mlp.TrainEpoch(clients[0], 0.05, epochRNG)
	}
	runtime.ReadMemStats(&after)
	out["model.train_epoch_allocs"] = float64(after.Mallocs-before.Mallocs) / allocEpochs

	// fl and τ: a five-client coalition, trained alone and through the
	// oracle, so fl.train_share compares like with like.
	cfg := fl.DefaultConfig(1)
	cfg.Rounds = mlpFLRounds
	spec := utility.FLSpec{
		Factory: func(s int64) model.Model { return model.NewMLP(dim, mlpHidden, classes, s) },
		Clients: clients, Test: test, Config: cfg, Metric: model.Accuracy,
	}
	five := combin.NewCoalition(0, 1, 2, 3, 4)
	out["fl.train_s"] = medianOf(11, func() { fl.Train(spec.Factory, clients[:5], cfg) })
	out["fl.client_epochs"] = float64(5 * cfg.Rounds * cfg.LocalEpochs)
	tau := medianOf(11, func() { sink += utility.NewFLOracle(spec).U(five) })
	out["fl.train_share"] = out["fl.train_s"] / tau
	oracle := utility.NewFLOracle(spec)
	oracle.U(five)
	out["utility.eval_hit_ns"] = 1e9 * perCall(probeBudget, func() { sink += oracle.U(five) })

	// utility.Store and the anytime tracker, at service-mixed's job size:
	// the 2^8 coalitions of one vocabulary fingerprint.
	store, err := utility.OpenStore(filepath.Join(dir, "probe-store"))
	if err != nil {
		return err
	}
	const fp = "00000000000000000000000000000000"
	var all []combin.Coalition
	combin.AllSubsets(8, func(s combin.Coalition) { all = append(all, s) })
	table := make(map[combin.Coalition]float64, len(all))
	begin := time.Now()
	for _, s := range all {
		table[s] = float64(s.Size())
		if err := store.Append(fp, s, table[s]); err != nil {
			return err
		}
	}
	out["utility.store_append_us"] = 1e6 * time.Since(begin).Seconds() / float64(len(all))
	var attachErr error
	out["utility.store_attach_s"] = medianOf(11, func() {
		if _, err := store.Attach(utility.TableOracle(8, table), fp); err != nil {
			attachErr = err
		}
	})
	if err := store.Close(); err != nil {
		return err
	}
	if attachErr != nil {
		return attachErr
	}
	req := mixedRequest(seed)
	plan, _ := shapley.PlanFor(shapley.NewIPSS(req.Gamma), req.N, req.Seed+2)
	out["shapley.tracker_s"] = medianOf(21, func() {
		rp := shapley.NewReplay(req.N, 0.9, plan)
		for _, s := range plan {
			rp.Add(s, table[s])
		}
		sink += rp.Snapshot().Values[0]
	})

	// Estimator error, deterministic in the seed: the suite against the
	// closed form, and IPSS against exact Shapley on a real (tiny, n=8)
	// federation — the paper's own accuracy measure.
	eval, exact := squareGame(seed)
	pass, err := suiteSerial(ctx, eval, seed)
	if err != nil {
		return err
	}
	errs, err := suiteErrors(pass, exact)
	if err != nil {
		return err
	}
	for name, e := range errs {
		out["shapley.rel_l2_err."+name] = e
	}
	exactReq := req
	exactReq.Algorithm = "exact"
	truth, err := serialValues(ctx, exactReq)
	if err != nil {
		return err
	}
	approx, err := serialValues(ctx, req)
	if err != nil {
		return err
	}
	out["shapley.fl_rel_l2_err.ipss"] = metrics.L2RelativeError(approx, truth)
	return nil
}
