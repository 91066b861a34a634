package fl

import (
	"fedshap/internal/combin"
	"fedshap/internal/tensor"
)

// Gradient-based valuation baselines avoid retraining by reconstructing the
// model a coalition S "would have trained" from the updates recorded during
// the single all-client run. Two reconstruction styles exist in the
// literature, both provided here.

// ReconstructFull rebuilds M_S's parameters across all rounds into params
// (Song et al.'s OR / "one round of communication" construction): starting
// from the initial global parameters, each round applies the
// weight-renormalised aggregate of the updates of clients in S. The
// approximation is that each client's recorded update was computed against
// the *actual* global trajectory, not the counterfactual one. params is
// caller-owned and as long as trace.Init.
func ReconstructFull(params tensor.Vector, trace *Trace, s combin.Coalition) {
	copy(params, trace.Init)
	for _, rt := range trace.Rounds {
		applyCoalitionUpdate(params, &rt, s)
	}
}

// ReconstructRound rebuilds the single-round counterfactual for round r into
// params (used by λ-MR, GTG-Shapley and DIG-FL): the round's actual starting
// global parameters plus the renormalised aggregate of S's updates for that
// round.
func ReconstructRound(params tensor.Vector, trace *Trace, r int, s combin.Coalition) {
	rt := &trace.Rounds[r]
	copy(params, rt.Global)
	applyCoalitionUpdate(params, rt, s)
}

// applyCoalitionUpdate adds the weight-renormalised aggregate update of
// coalition S to params, in place. Clients outside S (or without updates)
// contribute nothing; if no member of S participated, params is unchanged.
func applyCoalitionUpdate(params tensor.Vector, rt *RoundTrace, s combin.Coalition) {
	var total float64
	for i, u := range rt.Updates {
		if u == nil || !s.Has(i) {
			continue
		}
		total += rt.Weights[i]
	}
	if total == 0 {
		return
	}
	for i, u := range rt.Updates {
		if u == nil || !s.Has(i) {
			continue
		}
		params.AddScaled(rt.Weights[i]/total, u)
	}
}
