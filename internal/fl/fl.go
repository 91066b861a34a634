// Package fl implements the federated-learning substrate of Def. 1: a
// FedAvg server/client loop over parametric models, with optional recording
// of per-round client updates (the Trace) that the gradient-based valuation
// baselines — OR, λ-MR and GTG-Shapley — reconstruct coalition models from.
//
// Tree ensembles (model.Fitter) are trained on the merged coalition data,
// which is what histogram-sharing federated boosting computes; they produce
// no trace, matching the paper's "\" (not applicable) entries.
package fl

import (
	"fmt"
	"math/rand"
	"sync"

	"fedshap/internal/dataset"
	"fedshap/internal/model"
	"fedshap/internal/tensor"
)

// Algorithm selects the federated optimisation algorithm A of Def. 1.
type Algorithm int

const (
	// FedAvg is McMahan et al.'s weighted model averaging (the default).
	FedAvg Algorithm = iota
	// FedProx adds a proximal pull toward the global model to each local
	// update (Li et al.), damping client drift under non-IID data. The
	// proximal term is applied at the parameter level after local
	// training: Δ ← Δ · 1/(1 + ProxMu), the closed-form proximal step for
	// a quadratic penalty around the global parameters.
	FedProx
)

// String returns the algorithm name.
func (a Algorithm) String() string {
	switch a {
	case FedAvg:
		return "FedAvg"
	case FedProx:
		return "FedProx"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Config holds the federated-training hyper-parameters.
type Config struct {
	// Algorithm selects FedAvg (default) or FedProx.
	Algorithm Algorithm
	// Rounds is the number of server aggregation rounds.
	Rounds int
	// LocalEpochs is the number of local SGD epochs per client per round.
	LocalEpochs int
	// LR is the client learning rate.
	LR float64
	// ProxMu is the FedProx proximal coefficient (ignored by FedAvg).
	ProxMu float64
	// Seed drives model initialisation and SGD shuffling; training is
	// deterministic given the seed and the participating datasets.
	Seed int64
	// WeightBySize aggregates client updates weighted by |D_i| (standard
	// FedAvg); when false, clients with data are weighted equally.
	WeightBySize bool
	// Workers bounds concurrent per-client local training within one
	// aggregation round; <= 1 trains clients serially. Client updates are
	// independent (each trains from the round's global parameters with its
	// own seeded RNG) and are reduced sequentially in client order after
	// the round's trainings complete, so the trained model is bit-identical
	// at any worker count. Workers is an execution knob, not part of the
	// training problem: it never participates in problem fingerprints.
	Workers int
}

// DefaultConfig is sized for laptop-scale valuation experiments, where the
// per-coalition train+evaluate cost τ must stay in the milliseconds.
func DefaultConfig(seed int64) Config {
	return Config{Rounds: 3, LocalEpochs: 1, LR: 0.05, Seed: seed, WeightBySize: true}
}

// RoundTrace records one aggregation round: the global parameters the round
// started from and each participating client's update (local − global).
type RoundTrace struct {
	// Global is the global parameter vector at round start.
	Global tensor.Vector
	// Updates[i] is client i's parameter delta for this round; nil for
	// clients with no data (they do not participate).
	Updates []tensor.Vector
	// Weights[i] is client i's aggregation weight (already normalised over
	// participants; zero for non-participants).
	Weights []float64
}

// Trace is the full training history needed for gradient-based valuation.
type Trace struct {
	// Init is the initial global parameter vector.
	Init tensor.Vector
	// Rounds holds one entry per aggregation round.
	Rounds []RoundTrace
	// NumClients is the federation size the trace was recorded over.
	NumClients int
}

// Train runs federated training across the given client datasets and
// returns the final model. Parametric models use FedAvg; Fitter models are
// fitted on the merged data. Clients with empty datasets are skipped; if no
// client has data, the freshly initialised model is returned.
func Train(factory model.Factory, clients []*dataset.Dataset, cfg Config) model.Model {
	m, _ := train(factory, clients, cfg, false)
	return m
}

// TrainWithTrace is Train but additionally records the per-round updates.
// It returns a nil trace for Fitter models.
func TrainWithTrace(factory model.Factory, clients []*dataset.Dataset, cfg Config) (model.Model, *Trace) {
	return train(factory, clients, cfg, true)
}

func train(factory model.Factory, clients []*dataset.Dataset, cfg Config, wantTrace bool) (model.Model, *Trace) {
	m := factory(cfg.Seed)
	switch mm := m.(type) {
	case model.Parametric:
		return fedAvg(mm, clients, cfg, wantTrace)
	case model.Fitter:
		merged := dataset.Merge("coalition", clients...)
		if merged.Len() > 0 {
			mm.Fit(merged)
		}
		return mm, nil
	default:
		panic(fmt.Sprintf("fl: model %T is neither Parametric nor Fitter", m))
	}
}

func fedAvg(global model.Parametric, clients []*dataset.Dataset, cfg Config, wantTrace bool) (model.Model, *Trace) {
	n := len(clients)
	weights := aggregationWeights(clients, cfg.WeightBySize)
	participants := make([]int, 0, n)
	for i, w := range weights {
		if w > 0 {
			participants = append(participants, i)
		}
	}
	var trace *Trace
	if wantTrace {
		trace = &Trace{Init: global.Params(), NumClients: n}
	}
	if len(participants) == 0 {
		return global, trace
	}

	workers := cfg.Workers
	if workers > len(participants) {
		workers = len(participants)
	}
	if workers < 1 {
		workers = 1
	}
	// One local model and one RNG per pool slot, reused across clients and
	// rounds: SetParams fully overwrites the trainable state and Seed
	// restarts the stream a fresh rand.NewSource would give, so reuse
	// changes nothing numerically while dropping a Clone and a 5 KB source
	// per client per round.
	type slot struct {
		local model.Parametric
		rng   *rand.Rand
	}
	slots := make([]slot, workers)
	for w := range slots {
		slots[w] = slot{global.Clone().(model.Parametric), rand.New(rand.NewSource(0))}
	}

	params := global.Params()
	// deltas[i] is client i's update buffer, agg the round's aggregate;
	// both live across rounds, so outside trace mode a round allocates
	// nothing. A trace keeps each round's updates, so there the buffer is
	// handed over and the next round appends to nil.
	deltas := make([]tensor.Vector, n)
	agg := tensor.NewVector(len(params))
	// trainClient runs client i's local update for one round against the
	// round-start parameters (read-only here) and leaves its delta in
	// deltas[i]. Per-client, per-round deterministic shuffling keeps every
	// update independent of scheduling order.
	trainClient := func(s slot, round, i int) {
		s.local.SetParams(params)
		s.rng.Seed(cfg.Seed + int64(round)*1009 + int64(i)*9176)
		for e := 0; e < cfg.LocalEpochs; e++ {
			s.local.TrainEpoch(clients[i], cfg.LR, s.rng)
		}
		delta := s.local.AppendParams(deltas[i][:0])
		delta.AddScaled(-1, params) // delta = local - global
		if cfg.Algorithm == FedProx && cfg.ProxMu > 0 {
			// Proximal step: shrink the local deviation toward the
			// global model by the closed-form factor 1/(1+μ).
			delta.Scale(1 / (1 + cfg.ProxMu))
		}
		deltas[i] = delta
	}

	for round := 0; round < cfg.Rounds; round++ {
		var rt RoundTrace
		if wantTrace {
			rt = RoundTrace{
				Global:  params.Clone(),
				Updates: make([]tensor.Vector, n),
				Weights: append([]float64(nil), weights...),
			}
		}
		// Per-slot delta collection: each participating client trains
		// independently on a pool slot...
		if workers > 1 {
			var wg sync.WaitGroup
			work := make(chan int)
			for _, s := range slots {
				wg.Add(1)
				// round is passed, not captured: a captured loop
				// variable is heap-allocated once per iteration even
				// when this branch never runs.
				go func(s slot, round int) {
					defer wg.Done()
					for i := range work {
						trainClient(s, round, i)
					}
				}(s, round)
			}
			for _, i := range participants {
				work <- i
			}
			close(work)
			wg.Wait()
		} else {
			for _, i := range participants {
				trainClient(slots[0], round, i)
			}
		}
		// ...and the reduction is sequential in fixed client order, so the
		// floating-point aggregation sequence — and hence the trained
		// model — is bit-identical to serial execution.
		agg.Fill(0)
		for _, i := range participants {
			agg.AddScaled(weights[i], deltas[i])
			if wantTrace {
				rt.Updates[i], deltas[i] = deltas[i], nil
			}
		}
		params.AddScaled(1, agg)
		if wantTrace {
			trace.Rounds = append(trace.Rounds, rt)
		}
	}
	global.SetParams(params)
	return global, trace
}

// aggregationWeights returns normalised FedAvg weights; clients without data
// get weight zero.
func aggregationWeights(clients []*dataset.Dataset, bySize bool) []float64 {
	w := make([]float64, len(clients))
	var total float64
	for i, ds := range clients {
		if ds == nil || ds.Len() == 0 {
			continue
		}
		if bySize {
			w[i] = float64(ds.Len())
		} else {
			w[i] = 1
		}
		total += w[i]
	}
	if total > 0 {
		for i := range w {
			w[i] /= total
		}
	}
	return w
}
