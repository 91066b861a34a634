package shapley

import (
	"errors"
	"math"

	"fedshap/internal/combin"
	"fedshap/internal/fl"
	"fedshap/internal/model"
	"fedshap/internal/tensor"
	"fedshap/internal/utility"
)

// Shared plumbing for the gradient-based baselines (OR, λ-MR, GTG-Shapley
// and the parametric path of DIG-FL): train the federation once recording
// per-round client updates, then value clients by evaluating models
// *reconstructed* from those updates instead of retraining per coalition.

// trainTrace runs the single traced all-client training. It returns
// ErrNotApplicable for Fitter (tree) models, which produce no usable trace —
// the "\" cells of Table V.
func trainTrace(spec *utility.FLSpec) (*fl.Trace, error) {
	if spec == nil {
		return nil, ErrNeedsSpec
	}
	if _, ok := spec.Factory(spec.Config.Seed).(model.Parametric); !ok {
		return nil, ErrNotApplicable
	}
	_, trace := fl.TrainWithTrace(spec.Factory, spec.Clients, spec.Config)
	return trace, nil
}

// reconGame is the game a gradient baseline values: U(S) is the metric of
// S's reconstruction, across the whole trace when round < 0 (OR) and from
// round round's global model otherwise. It is a budget scope over an oracle
// of its own, like any other run, so each coalition is evaluated once, a
// non-finite utility ends the run and ctx.Ctx cancels it. One model and one
// parameter vector serve every coalition, so the game is for serial use.
func reconGame(ctx *Context, trace *fl.Trace, round int) *utility.RunView {
	spec := ctx.Spec
	m := spec.Factory(spec.Config.Seed).(model.Parametric)
	params := make(tensor.Vector, len(trace.Init))
	g := utility.NewRunView(utility.NewOracle(len(spec.Clients), func(s combin.Coalition) float64 {
		if round < 0 {
			fl.ReconstructFull(params, trace, s)
		} else {
			fl.ReconstructRound(params, trace, round, s)
		}
		m.SetParams(params)
		return spec.Metric(m, spec.Test)
	}))
	if ctx.Ctx != nil {
		g.SetContext(ctx.Ctx)
	}
	return g
}

// OR is Song et al.'s gradient-based baseline: it reconstructs M_S for
// every coalition S from the recorded updates (no extra training) and then
// computes the exact MC-SV over the reconstructed utilities. Fast — only
// 2ⁿ model *evaluations* — but with no approximation-error guarantee, since
// reconstructed models differ from actually-trained ones.
type OR struct{}

// Name implements Valuer.
func (OR) Name() string { return "OR" }

// Values implements Valuer.
func (OR) Values(ctx *Context) (Values, error) {
	trace, err := trainTrace(ctx.Spec)
	if err != nil {
		return nil, err
	}
	n := len(ctx.Spec.Clients)
	return exactMC(n, denseTable(n, reconGame(ctx, trace, -1).U)), nil
}

// LambdaMR is Wei et al.'s multi-round gradient baseline (λ-MR): in every
// training round it computes a full MC-SV over single-round reconstructions
// and aggregates the per-round values with exponential decay λ (λ = 1
// recovers the uniform average). Cost grows as rounds × 2ⁿ evaluations —
// the exponential blow-up the paper observes at n = 10.
type LambdaMR struct {
	// Lambda is the decay factor in (0, 1]; rounds nearer the end weigh
	// λ^(T−1−r). Zero means 1 (uniform).
	Lambda float64
}

// Name implements Valuer.
func (a *LambdaMR) Name() string { return "λ-MR" }

// Values implements Valuer.
func (a *LambdaMR) Values(ctx *Context) (Values, error) {
	rounds, err := perRoundValues(ctx)
	if err != nil {
		return nil, err
	}
	lambda := a.Lambda
	if lambda <= 0 || lambda > 1 {
		lambda = 1
	}
	phi := make(Values, len(ctx.Spec.Clients))
	var wsum float64
	for r, roundPhi := range rounds {
		w := pow(lambda, len(rounds)-1-r)
		wsum += w
		for i := range phi {
			phi[i] += w * roundPhi[i]
		}
	}
	if wsum > 0 {
		for i := range phi {
			phi[i] /= wsum
		}
	}
	return phi, nil
}

// PerRoundValues is the per-round decomposition λ-MR aggregates: for
// each training round r, the exact MC-SV of the game whose utility is the
// evaluation of the round-r reconstruction. Useful for auditing *when* in
// training each client contributed. Requires a parametric model.
func PerRoundValues(spec *utility.FLSpec) ([]Values, error) {
	return perRoundValues(&Context{Spec: spec})
}

func perRoundValues(ctx *Context) ([]Values, error) {
	trace, err := trainTrace(ctx.Spec)
	if err != nil {
		return nil, err
	}
	n := len(ctx.Spec.Clients)
	out := make([]Values, 0, len(trace.Rounds))
	for r := range trace.Rounds {
		out = append(out, exactMC(n, denseTable(n, reconGame(ctx, trace, r).U)))
	}
	return out, nil
}

func pow(x float64, k int) float64 {
	r := 1.0
	for ; k > 0; k-- {
		r *= x
	}
	return r
}

// GTGShapley is Liu et al.'s guided-truncation gradient baseline: per
// training round it Monte-Carlo-samples max(8, 2n) permutations over
// single-round reconstructions, with between-round truncation (a round that
// moves the utility by less than 0.01 is skipped entirely) and
// within-permutation truncation (a permutation walk stops once the running
// utility is within 0.005 of the round's full utility). Per-round values
// are summed over rounds.
type GTGShapley struct{}

// GTG-Shapley's truncation thresholds.
const (
	gtgBetweenTol = 0.01
	gtgWithinTol  = 0.005
)

// Name implements Valuer.
func (GTGShapley) Name() string { return "GTG-Shapley" }

// Values implements Valuer.
func (GTGShapley) Values(ctx *Context) (Values, error) {
	trace, err := trainTrace(ctx.Spec)
	if err != nil {
		return nil, err
	}
	n := len(ctx.Spec.Clients)
	perms := max(8, 2*n)
	full := combin.FullCoalition(n)

	phi := make(Values, n)
	var perm []int
	var prevRoundU float64
	for r := range trace.Rounds {
		g := reconGame(ctx, trace, r)
		if r == 0 {
			// Round 0 starts from the initial model, so its U(∅) is the
			// initial model's utility.
			prevRoundU = g.U(combin.Empty)
		}
		uFull := g.U(full)
		if math.Abs(uFull-prevRoundU) < gtgBetweenTol {
			// Between-round truncation: this round changed little; its
			// per-round SV is taken as zero.
			prevRoundU = uFull
			continue
		}
		uEmpty := g.U(combin.Empty)
		roundPhi := make(Values, n)
		for p := 0; p < perms; p++ {
			perm = combin.PermInto(ctx.RNG, n, perm)
			var s combin.Coalition
			prev := uEmpty
			for _, i := range perm {
				s = s.With(i)
				if math.Abs(uFull-prev) < gtgWithinTol {
					break // within-permutation truncation
				}
				cur := g.U(s)
				roundPhi[i] += cur - prev
				prev = cur
			}
		}
		for i := range phi {
			phi[i] += roundPhi[i] / float64(perms)
		}
		prevRoundU = uFull
	}
	return phi, nil
}

// DIGFL is Wang et al.'s efficient contribution-evaluation baseline
// (ICDE 2022): it needs only O(n) utility evaluations. For parametric
// models it accumulates per-round leave-one-out differences over
// reconstructions, U(M_r) − U(M_r^{−i}); for tree models — where no trace
// exists — it falls back to leave-one-out retraining, U(N) − U(N\{i}),
// still O(n) coalition evaluations (Table V shows DIG-FL *is* applicable to
// XGB).
type DIGFL struct{}

// Name implements Valuer.
func (DIGFL) Name() string { return "DIG-FL" }

// Values implements Valuer.
func (DIGFL) Values(ctx *Context) (Values, error) {
	trace, err := trainTrace(ctx.Spec)
	if errors.Is(err, ErrNotApplicable) {
		// No trace to reconstruct from: leave-one-out retraining.
		return LeaveOneOut{}.Values(ctx)
	}
	if err != nil {
		return nil, err
	}
	n := len(ctx.Spec.Clients)
	full := combin.FullCoalition(n)
	phi := make(Values, n)
	for r := range trace.Rounds {
		g := reconGame(ctx, trace, r)
		uAll := g.U(full)
		for i := 0; i < n; i++ {
			phi[i] += uAll - g.U(full.Without(i))
		}
	}
	return phi, nil
}
