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
	"slices"

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
	m, _ := new(Arena).train(factory, clients, cfg, false)
	return m
}

// TrainWithTrace is Train but additionally records the per-round updates.
// It returns a nil trace for Fitter models.
func TrainWithTrace(factory model.Factory, clients []*dataset.Dataset, cfg Config) (model.Model, *Trace) {
	return new(Arena).train(factory, clients, cfg, true)
}

// Arena owns everything one federated training builds — the global model
// and its initial parameters, the RNG, the parameter, aggregate and delta
// vectors, the weights — so that training coalition after coalition
// through one Arena allocates nothing once it is warm. The zero value is
// ready; Train is the one-shot case of a fresh Arena that is then dropped.
//
// An Arena serves one factory and one training at a time. The model Train
// returns is arena-owned: it is valid only until the next Train on the same
// Arena, which retrains that very model, so a caller that keeps the Arena
// must not retain the model. Every coalition of a factory and seed starts
// from the same parameters, which is what makes starting over from the
// recorded initial vector equal to running the factory again, bit for bit.
type Arena struct {
	// global is also where every client trains: SetParams overwrites its
	// trainable state with the round-start parameters before each client,
	// and the last SetParams of a training restores the aggregate. rng is
	// reused across clients, rounds and trainings and reseeded before every
	// client. Its seqSource gives, seed for seed, the stream of a fresh
	// rand.NewSource, so reuse changes nothing numerically; but its Seed
	// only records the seed, and a register word is computed when a draw
	// first reads it, so a reseed costs what the client's shuffle draws
	// instead of math/rand's whole 607-word fill.
	global model.Parametric
	// init is global's parameter vector as the factory built it under
	// seed; a Config with another seed starts the Arena over.
	init tensor.Vector
	seed int64
	rng  *rand.Rand
	// params is the round-start global vector, agg the round's aggregate
	// and delta the update buffer of the client in training, added to agg
	// as soon as that client finishes. Outside trace mode a round
	// allocates nothing; a trace keeps each client's update, so there the
	// buffer is handed over and the next client appends to nil.
	params, agg, delta tensor.Vector
	weights            []float64
	participants       []int
}

// Train is fl.Train on the Arena's buffers; see the type for how long the
// returned model stays valid.
func (a *Arena) Train(factory model.Factory, clients []*dataset.Dataset, cfg Config) model.Model {
	m, _ := a.train(factory, clients, cfg, false)
	return m
}

func (a *Arena) train(factory model.Factory, clients []*dataset.Dataset, cfg Config, wantTrace bool) (model.Model, *Trace) {
	if a.global == nil || a.seed != cfg.Seed {
		switch m := factory(cfg.Seed).(type) {
		case model.Parametric:
			*a = Arena{global: m, init: m.Params(), seed: cfg.Seed}
		case model.Fitter:
			// A fit builds its ensemble from nothing, so there is no state
			// an Arena could carry from one coalition to the next.
			merged := dataset.Merge("coalition", clients...)
			if merged.Len() > 0 {
				m.Fit(merged)
			}
			return m, nil
		default:
			panic(fmt.Sprintf("fl: model %T is neither Parametric nor Fitter", m))
		}
	}
	return a.fedAvg(clients, cfg, wantTrace)
}

// fedAvg trains a.global from a.init on the clients.
func (a *Arena) fedAvg(clients []*dataset.Dataset, cfg Config, wantTrace bool) (model.Model, *Trace) {
	n := len(clients)
	a.weights = aggregationWeights(slices.Grow(a.weights[:0], n), clients, cfg.WeightBySize)
	a.participants = slices.Grow(a.participants[:0], n)
	for i, w := range a.weights {
		if w > 0 {
			a.participants = append(a.participants, i)
		}
	}
	var trace *Trace
	if wantTrace {
		trace = &Trace{Init: a.init.Clone(), NumClients: n}
	}
	if len(a.participants) == 0 {
		a.global.SetParams(a.init)
		return a.global, trace
	}

	if a.rng == nil {
		a.rng = rand.New(new(seqSource))
	}
	a.params = append(a.params[:0], a.init...)
	if a.agg == nil {
		a.agg = tensor.NewVector(len(a.init))
	}

	for round := 0; round < cfg.Rounds; round++ {
		var rt RoundTrace
		if wantTrace {
			rt = RoundTrace{
				Global:  a.params.Clone(),
				Updates: make([]tensor.Vector, n),
				Weights: append([]float64(nil), a.weights...),
			}
		}
		// Clients train and are added in fixed participant order, which
		// fixes the floating-point aggregation sequence and hence the
		// trained bits.
		a.agg.Fill(0)
		for _, i := range a.participants {
			a.trainClient(clients[i], cfg, round, i)
			a.agg.AddScaled(a.weights[i], a.delta)
			if wantTrace {
				rt.Updates[i], a.delta = a.delta, nil
			}
		}
		a.params.AddScaled(1, a.agg)
		if wantTrace {
			trace.Rounds = append(trace.Rounds, rt)
		}
	}
	a.global.SetParams(a.params)
	return a.global, trace
}

// trainClient runs client i's local update for one round from the
// round-start parameters (read-only here), in a.global, and leaves its
// delta in a.delta. Per-client, per-round deterministic shuffling keeps
// every update independent of the order clients train in.
func (a *Arena) trainClient(ds *dataset.Dataset, cfg Config, round, i int) {
	a.global.SetParams(a.params)
	a.rng.Seed(cfg.Seed + int64(round)*1009 + int64(i)*9176)
	for e := 0; e < cfg.LocalEpochs; e++ {
		a.global.TrainEpoch(ds, cfg.LR, a.rng)
	}
	delta := a.global.AppendParams(a.delta[:0])
	delta.AddScaled(-1, a.params) // delta = local - global
	if cfg.Algorithm == FedProx && cfg.ProxMu > 0 {
		// Proximal step: shrink the local deviation toward the
		// global model by the closed-form factor 1/(1+μ).
		delta.Scale(1 / (1 + cfg.ProxMu))
	}
	a.delta = delta
}

// aggregationWeights appends the normalised FedAvg weights to w; clients
// without data get weight zero.
func aggregationWeights(w []float64, clients []*dataset.Dataset, bySize bool) []float64 {
	var total float64
	for _, ds := range clients {
		wi := 0.0
		if ds != nil && ds.Len() > 0 {
			wi = 1
			if bySize {
				wi = float64(ds.Len())
			}
		}
		w = append(w, wi)
		total += wi
	}
	if total > 0 {
		for i := range w {
			w[i] /= total
		}
	}
	return w
}
