// Package shapley implements SV-based data valuation for federated
// learning: the exact MC-SV / CC-SV / permutation schemes (Defs. 3-4), the
// paper's unified stratified sampling framework (Alg. 1), the K-Greedy probe
// (Alg. 2), the IPSS contribution (Alg. 3), and the nine baselines the paper
// evaluates against (DIG-FL, Extended-TMC, Extended-GTB, CC-Shapley, OR,
// λ-MR, GTG-Shapley, plus the exact definitional methods).
//
// Every algorithm consumes coalition utilities through a utility.Source,
// so budget accounting (distinct train+evaluate calls, the paper's γ) and
// caching are uniform across methods. The gradient baselines (OR, λ-MR,
// GTG-Shapley, DIG-FL) train once with a trace and value reconstructed
// games, each through a utility.RunView over an oracle of its own
// (reconGame), so cancellation and the non-finite check hold for them too.
// Each algorithm is a draw (which coalitions to request) plus a reducer;
// the reducers — the dense MC-SV sum, the truncated-strata sum, the
// per-stratum mean fold, the budget stop rule, the permutation walk — live
// once each in reduce.go, and ARCHITECTURE.md's "Estimator map" says which
// algorithm uses which.
// RunPooled is the one composition of plan → prefetch → budget view → Run
// for callers that own their oracle.
package shapley

import (
	"context"
	"errors"
	"math/rand"

	"fedshap/internal/utility"
)

// Values holds one data value per FL client.
type Values []float64

// Clone returns a copy.
func (v Values) Clone() Values {
	out := make(Values, len(v))
	copy(out, v)
	return out
}

// Sum returns Σᵢ φᵢ.
func (v Values) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Context carries the inputs a valuation algorithm may need. Oracle is
// always required. Spec is required only by the gradient-based baselines,
// which train once with a trace and evaluate reconstructed models through
// a budget scope per reconstructed game, bound to Ctx; it is nil when the game
// exists only as a utility table. Ctx, when non-nil, makes the run
// cooperatively cancellable (see Run).
type Context struct {
	Oracle utility.Source
	Spec   *utility.FLSpec
	RNG    *rand.Rand
	Ctx    context.Context
}

// NewContext builds a Context with a deterministic RNG.
func NewContext(o utility.Source, seed int64) *Context {
	return &Context{Oracle: o, RNG: planRNG(seed)}
}

// WithSpec attaches the FL spec needed by gradient-based baselines.
func (c *Context) WithSpec(spec *utility.FLSpec) *Context {
	c.Spec = spec
	return c
}

// WithContext attaches a context for cooperative cancellation.
func (c *Context) WithContext(ctx context.Context) *Context {
	c.Ctx = ctx
	return c
}

// Run executes a valuer with cooperative cancellation. If c.Ctx is set and
// c.Oracle is a utility.ContextBinder — a utility.RunView, or valserve's
// job view, which embeds one — c.Ctx is bound to that budget scope, and
// cancelling it makes the run's next *fresh* coalition evaluation abort the
// run; Run returns the bare context error (context.Canceled or
// DeadlineExceeded) the *utility.Abort carries. Utilities cached
// before the cancellation stay cached. A bare *utility.Oracle binds nothing:
// c.Ctx is then checked once on entry only. Algorithms themselves stay
// context-free: every one is budgeted in utility requests, so the budget
// scope is the single choke point cancellation needs. Every other
// *utility.Abort — a non-finite utility, an evaluation function that could
// not be built — ends the run the same way, as its Err; any other panic is
// re-raised.
func Run(c *Context, v Valuer) (values Values, err error) {
	if c.Ctx != nil {
		if b, ok := c.Oracle.(utility.ContextBinder); ok {
			b.SetContext(c.Ctx)
		}
		if err := c.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	defer func() {
		if r := recover(); r != nil {
			a, ok := r.(*utility.Abort)
			if !ok {
				panic(r)
			}
			values, err = nil, a.Err
		}
	}()
	return v.Values(c)
}

// RunPooled is the one composition of the evaluation pipeline for a caller
// that owns its oracle: alg's deterministic plan for seed (PlanFor) is
// evaluated on a pool of workers over o, then alg runs serially, seeded
// with seed, in a fresh budget scope (utility.RunView) over the now-warm
// cache. The scope meters the distinct coalitions this run requests, warm
// or not, exactly as a fresh oracle would, so sampling decisions — and
// hence the values — are bit-identical at every width and every cache
// state; requests is that count. workers == 1 is the serial run: no plan,
// no pool. workers <= 0 selects GOMAXPROCS.
//
// c carries what Run needs beyond the oracle — the optional FL spec and
// cancellation context; its Oracle (the budget scope) and RNG are set here.
// c.Ctx also stops the pool, so it may be nil only when workers == 1.
func RunPooled(c *Context, o *utility.Oracle, alg Valuer, seed int64, workers int) (values Values, requests int, err error) {
	if workers != 1 {
		if plan, ok := PlanFor(alg, o.N(), seed); ok && len(plan) > 0 {
			if err := o.Prefetch(c.Ctx, plan, workers); err != nil {
				return nil, 0, err
			}
		}
	}
	view := utility.NewRunView(o)
	c.Oracle, c.RNG = view, planRNG(seed)
	values, err = Run(c, alg)
	return values, view.Evals(), err
}

// Valuer estimates the data value of every client in the federation.
type Valuer interface {
	// Name returns the algorithm's display name.
	Name() string
	// Values computes the (possibly approximate) data values.
	Values(ctx *Context) (Values, error)
}

// ErrNeedsSpec is returned by gradient-based baselines when no FL spec is
// available (e.g. pure utility-table games).
var ErrNeedsSpec = errors.New("shapley: algorithm requires an FL training spec")

// ErrNotApplicable is returned when an algorithm cannot run on the given
// model family — e.g. gradient-based baselines on tree ensembles, the "\"
// cells of the paper's Table V.
var ErrNotApplicable = errors.New("shapley: algorithm not applicable to this model")
