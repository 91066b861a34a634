package shapley

import (
	"fmt"
	"math"

	"fedshap/internal/combin"
	"fedshap/internal/fl"
	"fedshap/internal/model"
	"fedshap/internal/utility"
)

// Shared plumbing for the gradient-based baselines (OR, λ-MR, GTG-Shapley
// and the parametric path of DIG-FL): train the federation once recording
// per-round client updates, then value clients by evaluating models
// *reconstructed* from those updates instead of retraining per coalition.

// trainTrace runs the single traced all-client training. It returns
// ErrNotApplicable for Fitter (tree) models, which produce no usable trace —
// the "\" cells of Table V.
func trainTrace(spec *utility.FLSpec) (model.Model, *fl.Trace, error) {
	if spec == nil {
		return nil, nil, ErrNeedsSpec
	}
	if _, ok := spec.Factory(spec.Config.Seed).(model.Parametric); !ok {
		return nil, nil, ErrNotApplicable
	}
	m, trace := fl.TrainWithTrace(spec.Factory, spec.Clients, spec.Config)
	return m, trace, nil
}

// reconEvalFull evaluates the utility of the full-trajectory reconstruction
// of coalition s (Song et al.'s construction).
func reconEvalFull(spec *utility.FLSpec, trace *fl.Trace, s combin.Coalition) float64 {
	m := fl.ReconstructFull(spec.Factory, trace, s, spec.Config.Seed)
	return spec.Metric(m, spec.Test)
}

// reconEvalRound evaluates the utility of the round-r reconstruction of
// coalition s.
func reconEvalRound(spec *utility.FLSpec, trace *fl.Trace, r int, s combin.Coalition) float64 {
	m := fl.ReconstructRound(spec.Factory, trace, r, s, spec.Config.Seed)
	return spec.Metric(m, spec.Test)
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
	spec := ctx.Spec
	_, trace, err := trainTrace(spec)
	if err != nil {
		return nil, err
	}
	n := len(spec.Clients)
	return exactMC(n, denseTable(n, func(s combin.Coalition) float64 {
		return reconEvalFull(spec, trace, s)
	})), nil
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
	rounds, err := PerRoundValues(ctx.Spec)
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
	_, trace, err := trainTrace(spec)
	if err != nil {
		return nil, err
	}
	n := len(spec.Clients)
	out := make([]Values, 0, len(trace.Rounds))
	for r := range trace.Rounds {
		out = append(out, exactMC(n, denseTable(n, func(s combin.Coalition) float64 {
			return reconEvalRound(spec, trace, r, s)
		})))
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
// training round it Monte-Carlo-samples permutations over single-round
// reconstructions, with between-round truncation (rounds that barely move
// the utility are skipped entirely) and within-permutation truncation (a
// permutation walk stops once the running utility reaches the round's full
// utility). Per-round values are summed over rounds.
type GTGShapley struct {
	// PermsPerRound is the number of sampled permutations per round
	// (default max(8, 2n)).
	PermsPerRound int
	// BetweenTol is the between-round truncation threshold (default 0.01).
	BetweenTol float64
	// WithinTol is the within-permutation truncation threshold
	// (default 0.005).
	WithinTol float64
}

// Name implements Valuer.
func (a *GTGShapley) Name() string { return "GTG-Shapley" }

// Values implements Valuer.
func (a *GTGShapley) Values(ctx *Context) (Values, error) {
	spec := ctx.Spec
	_, trace, err := trainTrace(spec)
	if err != nil {
		return nil, err
	}
	n := len(spec.Clients)
	perms := a.PermsPerRound
	if perms <= 0 {
		perms = 2 * n
		if perms < 8 {
			perms = 8
		}
	}
	betweenTol := a.BetweenTol
	if betweenTol <= 0 {
		betweenTol = 0.01
	}
	withinTol := a.WithinTol
	if withinTol <= 0 {
		withinTol = 0.005
	}
	fullC := combin.FullCoalition(n)

	phi := make(Values, n)
	prevRoundU := spec.Metric(initModel(spec), spec.Test)
	for r := range trace.Rounds {
		uFull := reconEvalRound(spec, trace, r, fullC)
		if math.Abs(uFull-prevRoundU) < betweenTol {
			// Between-round truncation: this round changed little; its
			// per-round SV is taken as zero.
			prevRoundU = uFull
			continue
		}
		uEmpty := reconEvalRound(spec, trace, r, combin.Empty)
		cache := newUtilityTable(2)
		cache.put(combin.Empty, uEmpty)
		cache.put(fullC, uFull)
		evalRound := func(s combin.Coalition) float64 {
			if v, ok := cache.get(s); ok {
				return v
			}
			v := reconEvalRound(spec, trace, r, s)
			cache.put(s, v)
			return v
		}
		roundPhi := make(Values, n)
		for p := 0; p < perms; p++ {
			perm := combin.RandomPermutation(n, ctx.RNG)
			var s combin.Coalition
			prev := uEmpty
			for _, i := range perm {
				s = s.With(i)
				if math.Abs(uFull-prev) < withinTol {
					break // within-permutation truncation
				}
				cur := evalRound(s)
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

func initModel(spec *utility.FLSpec) model.Model {
	return spec.Factory(spec.Config.Seed)
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
	spec := ctx.Spec
	if spec == nil {
		return nil, ErrNeedsSpec
	}
	n := len(spec.Clients)
	if _, ok := spec.Factory(spec.Config.Seed).(model.Parametric); !ok {
		// No trace to reconstruct from: leave-one-out retraining.
		if ctx.Oracle == nil {
			return nil, fmt.Errorf("shapley: DIG-FL fallback requires an oracle")
		}
		return LeaveOneOut{}.Values(ctx)
	}
	_, trace, err := trainTrace(spec)
	if err != nil {
		return nil, err
	}
	full := combin.FullCoalition(n)
	phi := make(Values, n)
	for r := range trace.Rounds {
		uAll := reconEvalRound(spec, trace, r, full)
		for i := 0; i < n; i++ {
			uWithout := reconEvalRound(spec, trace, r, full.Without(i))
			phi[i] += uAll - uWithout
		}
	}
	return phi, nil
}
