package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"fedshap"
	"fedshap/internal/combin"
	"fedshap/internal/fl"
	"fedshap/internal/metrics"
	"fedshap/internal/model"
	"fedshap/internal/shapley"
	"fedshap/internal/utility"
)

// The library workloads call the valuation stack in-process: one caller
// with a 2-wide evaluation pool.
const poolWorkers = 2

// mlp-cold's problem: the paper's 10-client FEMNIST-like federation with a
// one-hidden-layer MLP, three FedAvg rounds, IPSS at the Table III budget.
const (
	mlpClients   = 10
	mlpPerClient = 120
	mlpTest      = 300
	mlpHidden    = 32
	mlpFLRounds  = 3
	mlpGamma     = 32
	mlpWarmups   = 24 // unmeasured operations in set-up: ≥1 s of real work
)

// pipelineStats are the counts of the decomposed valuations of a round;
// their times are in the spans.
type pipelineStats struct {
	fresh, requests, hits int
}

// valuePipeline is Federation.ValueParallel taken apart at its layer
// boundaries — plan, pool prefetch, sequential reduce over a budget view —
// so each part can be timed from outside. sp is the operation's root span.
// With tracing off it is the plain pipeline: no wrappers, no clock reads,
// ps untouched. With tracing on, an oracle that trains (spec set) also gets
// one child span per fresh evaluation; a closed-form game does not, because
// there an evaluation costs less than its span.
func valuePipeline(ctx context.Context, sp spanRef, alg shapley.Valuer, seed int64,
	oracle *utility.Oracle, spec *utility.FLSpec, ps *pipelineStats) (shapley.Values, error) {

	traced := sp.rec != nil
	p := sp.child("shapley.plan")
	plan, _ := shapley.PlanFor(alg, oracle.N(), seed)
	p.end()

	pf := sp.child("utility.prefetch")
	if traced && spec != nil {
		oracle.WrapEval(func(inner utility.EvalFunc) utility.EvalFunc {
			return func(s combin.Coalition) float64 {
				e := pf.child("utility.eval_miss")
				u := inner(s)
				e.end()
				return u
			}
		})
	}
	if len(plan) > 0 {
		if err := oracle.Prefetch(ctx, plan, poolWorkers); err != nil {
			return nil, err
		}
	}
	pf.end()
	freshBefore := oracle.Evals()

	rd := sp.child("shapley.reduce")
	var src utility.Source = utility.NewRunView(oracle)
	var calls int
	if traced {
		src = countingSource{Source: src, calls: &calls}
	}
	sctx := shapley.NewContext(src, seed).WithContext(ctx)
	if spec != nil {
		sctx = sctx.WithSpec(spec)
	}
	values, err := shapley.Run(sctx, alg)
	rd.end()
	if err != nil {
		return nil, err
	}
	if traced {
		ps.fresh += oracle.Evals()
		ps.requests += calls
		ps.hits += calls - (oracle.Evals() - freshBefore)
	}
	return values, nil
}

// countingSource counts the utility requests a sampler issues.
type countingSource struct {
	utility.Source
	calls *int
}

func (c countingSource) U(s combin.Coalition) float64 {
	*c.calls++
	return c.Source.U(s)
}

// distinct counts the distinct coalitions of a plan: the fresh evaluations
// a cold run of it must cost.
func distinct(plan []combin.Coalition) int {
	seen := make(map[combin.Coalition]struct{}, len(plan))
	for _, s := range plan {
		seen[s] = struct{}{}
	}
	return len(seen)
}

// sameBits requires two value vectors to agree bit for bit.
func sameBits(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("value vector has %d entries, serial path %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("value[%d] = %v, serial path %v", i, got[i], want[i])
		}
	}
	return nil
}

// mlpProblem builds mlp-cold's federation twice over the same data: as the
// public Federation the untraced pass drives, and as the internal FLSpec
// the traced pass needs to reach the oracle's seams. The serial check
// compares both against Federation.Value, so the two cannot drift apart.
func mlpProblem(seed int64) (*fedshap.Federation, *utility.FLSpec, error) {
	clients, test := fedshap.FederatedWriters(mlpClients, mlpPerClient, mlpTest, seed)
	fed, err := fedshap.NewFederation(
		fedshap.WithDatasets(clients...),
		fedshap.WithTestSet(test),
		fedshap.WithMLP(mlpHidden),
		fedshap.WithFLRounds(mlpFLRounds),
	)
	if err != nil {
		return nil, nil, err
	}
	cfg := fl.DefaultConfig(1)
	cfg.Rounds = mlpFLRounds
	spec := &utility.FLSpec{
		Factory: func(seed int64) model.Model {
			return model.NewMLP(test.Dim(), mlpHidden, test.NumClasses, seed)
		},
		Clients: clients,
		Test:    test,
		Config:  cfg,
		Metric:  model.Accuracy,
	}
	return fed, spec, nil
}

var mlpCold = &workload{
	name:    "mlp-cold",
	why:     "every coalition is trained on a fresh oracle: tensor, model and fl do ~95% of the work, so kernel, epoch and pool-scaling changes show here",
	rate:    20,
	clients: 1,
	setup: func(ctx context.Context, env *roundEnv) (*round, error) {
		fed, spec, err := mlpProblem(env.opSeed(-1))
		if err != nil {
			return nil, err
		}
		alg := fedshap.IPSS(mlpGamma)
		for j := 0; j < mlpWarmups; j++ {
			if _, err := fed.ValueParallelCtx(ctx, alg, env.opSeed(env.ops+j), poolWorkers); err != nil {
				return nil, err
			}
		}
		values := make([]fedshap.Values, env.ops)
		var ps pipelineStats
		return &round{
			op: func(ctx context.Context, i int, sp spanRef) error {
				seed := env.opSeed(i)
				var evals int
				if sp.rec == nil {
					rep, err := fed.ValueParallelCtx(ctx, alg, seed, poolWorkers)
					if err != nil {
						return err
					}
					values[i], evals = rep.Values, rep.Evaluations
				} else {
					oracle := utility.NewFLOracle(*spec)
					v, err := valuePipeline(ctx, sp, alg, seed, oracle, spec, &ps)
					if err != nil {
						return err
					}
					values[i], evals = v, oracle.Evals()
				}
				// Checked on every operation: it costs one plan replay
				// (microseconds at n=10) and pins the budget accounting.
				plan, _ := shapley.PlanFor(alg, fed.N(), seed)
				if want := distinct(plan); evals != want {
					return fmt.Errorf("%d fresh evaluations, plan has %d distinct coalitions", evals, want)
				}
				return nil
			},
			verify: func(ctx context.Context, i int) error {
				rep, err := fed.ValueCtx(ctx, alg, env.opSeed(i))
				if err != nil {
					return err
				}
				return sameBits(values[i], rep.Values)
			},
			layers: func(_ context.Context, st *roundStats, out map[string]float64) error {
				pipelineLayers(env.rec, &ps, st, out)
				return nil
			},
			close: func() error { return nil },
		}, nil
	},
}

// pipelineLayers turns a traced library round into per-layer metrics,
// per operation.
func pipelineLayers(rec *recorder, ps *pipelineStats, st *roundStats, out map[string]float64) {
	ops := st.ops()
	spans := rec.snapshot()
	tau := durations(spans, "utility.eval_miss")
	prefetch := sum(durations(spans, "utility.prefetch")) / ops
	reduce := sum(durations(spans, "shapley.reduce")) / ops
	out["shapley.plan_s"] = sum(durations(spans, "shapley.plan")) / ops
	out["utility.prefetch_s"] = prefetch
	out["shapley.reduce_s"] = reduce
	out["shapley.requests"] = float64(ps.requests) / ops
	if ps.requests > 0 {
		out["shapley.ns_per_request"] = reduce * ops * 1e9 / float64(ps.requests)
	}
	out["utility.fresh_evals"] = float64(ps.fresh) / ops
	out["utility.cache_hits"] = float64(ps.hits) / ops
	if len(tau) > 0 {
		tauPerOp := sum(tau) / ops
		out["utility.eval_miss_s.p50"] = median(tau)
		out["utility.pool_efficiency"] = tauPerOp / (poolWorkers * prefetch)
		out["utility.pool_wait_s"] = prefetch - tauPerOp/poolWorkers
	}
}

// sampler-free's game: v(S) = (Σ_{i∈S} wᵢ)² over 24 players. Its Shapley
// value has the closed form φᵢ = wᵢ² + wᵢ·Σ_{j≠i} wⱼ (and the Banzhaf value
// coincides with it), so every sampler's output can be scored exactly.
const (
	suiteN     = 24
	suiteGamma = 6000
)

// suite is sampler-free's samplers in run order. ceiling bounds each one's
// relative L2 error against the closed form at γ=6000, n=24: about three
// times the worst value over 60 seeds when this benchmark was written (in
// the comments). The check catches an estimator that broke — a sign flip
// reads above 1 — not one that got slightly noisier. IPSS prunes every
// large coalition by design, which this super-additive game punishes: it
// recovers about 2% of each value and sits just under 1 on every seed; its
// ceiling records that, not a defect.
var suite = []struct {
	name    string // the <alg> of shapley.rel_l2_err.<alg>
	ceiling float64
	alg     shapley.Valuer
}{
	{"ipss", 1.0, shapley.NewIPSS(suiteGamma)},                           // 0.980
	{"cc-shapley", 0.10, shapley.NewCCShapley(suiteGamma)},               // 0.030
	{"perm-mc", 0.15, shapley.NewPermSampling(suiteGamma)},               // 0.046
	{"extended-gtb", 1.0, shapley.NewGTB(suiteGamma)},                    // 0.350
	{"mc-banzhaf", 0.08, shapley.NewMCBanzhaf(suiteGamma)},               // 0.024
	{"extended-tmc", 0.15, shapley.NewTMC(suiteGamma)},                   // 0.046
	{"stratified-neyman", 0.03, shapley.NewStratifiedNeyman(suiteGamma)}, // 0.010
}

// squareGame draws the weights and returns the game with its exact values.
func squareGame(seed int64) (eval utility.EvalFunc, exact []float64) {
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, suiteN)
	total := 0.0
	for i := range w {
		w[i] = 0.5 + rng.Float64()
		total += w[i]
	}
	exact = make([]float64, suiteN)
	for i, wi := range w {
		exact[i] = wi*wi + wi*(total-wi)
	}
	eval = func(s combin.Coalition) float64 {
		t := 0.0
		for i := 0; i < suiteN; i++ {
			if s.Has(i) {
				t += w[i]
			}
		}
		return t * t
	}
	return eval, exact
}

// suitePass is sampler-free's operation: every sampler once, each against
// a fresh oracle, through the same plan → prefetch → reduce pipeline
// ValueParallel uses.
func suitePass(ctx context.Context, sp spanRef, eval utility.EvalFunc, seed int64, ps *pipelineStats) ([]shapley.Values, error) {
	out := make([]shapley.Values, 0, len(suite))
	for _, a := range suite {
		v, err := valuePipeline(ctx, sp, a.alg, seed, utility.NewOracle(suiteN, eval), nil, ps)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.name, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// suiteSerial recomputes a pass on the serial library path: shapley.Run on
// a fresh oracle, no plan, no pool.
func suiteSerial(ctx context.Context, eval utility.EvalFunc, seed int64) ([]shapley.Values, error) {
	out := make([]shapley.Values, 0, len(suite))
	for _, a := range suite {
		v, err := shapley.Run(shapley.NewContext(utility.NewOracle(suiteN, eval), seed).WithContext(ctx), a.alg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.name, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// suiteErrors scores a pass against the closed form, failing on a sampler
// over its ceiling.
func suiteErrors(pass []shapley.Values, exact []float64) (map[string]float64, error) {
	errs := make(map[string]float64, len(pass))
	for k, a := range suite {
		e := metrics.L2RelativeError(pass[k], exact)
		errs[a.name] = e
		if !(e <= a.ceiling) {
			return errs, fmt.Errorf("%s: relative L2 error %.4f over its ceiling %.2f", a.name, e, a.ceiling)
		}
	}
	return errs, nil
}

var samplerFree = &workload{
	name:    "sampler-free",
	why:     "closed-form zero-cost game: sampler bookkeeping, plan replay and the cache/pool hit path are all of the cost and training none, the opposite use of utility.Oracle from mlp-cold",
	rate:    21,
	clients: 1,
	setup: func(ctx context.Context, env *roundEnv) (*round, error) {
		eval, exact := squareGame(env.opSeed(-1))
		// Warm-up passes: the samplers' first runs grow the heap to its
		// working size, which must not land in the timed window.
		for j := 0; j < suiteWarmups; j++ {
			if _, err := suitePass(ctx, spanRef{}, eval, env.opSeed(env.ops+j), nil); err != nil {
				return nil, err
			}
		}
		passes := make([][]shapley.Values, env.ops)
		var ps pipelineStats
		return &round{
			op: func(ctx context.Context, i int, sp spanRef) error {
				pass, err := suitePass(ctx, sp, eval, env.opSeed(i), &ps)
				if i%checkEvery == 0 {
					passes[i] = pass
				}
				return err
			},
			verify: func(ctx context.Context, i int) error {
				serial, err := suiteSerial(ctx, eval, env.opSeed(i))
				if err != nil {
					return err
				}
				for k, a := range suite {
					if err := sameBits(passes[i][k], serial[k]); err != nil {
						return fmt.Errorf("%s: %w", a.name, err)
					}
				}
				_, err = suiteErrors(passes[i], exact)
				return err
			},
			layers: func(_ context.Context, st *roundStats, out map[string]float64) error {
				pipelineLayers(env.rec, &ps, st, out)
				return nil
			},
			close: func() error { return nil },
		}, nil
	},
}

// suiteWarmups sizes sampler-free's set-up to ≥1 s of real work.
const suiteWarmups = 30
