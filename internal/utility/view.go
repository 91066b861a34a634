package utility

import (
	"context"

	"fedshap/internal/combin"
)

// Source is what valuation algorithms consume: coalition utilities plus the
// budget accounting they self-limit against. *Oracle implements it; RunView
// wraps an Oracle to give each algorithm run its own budget meter over a
// shared cache.
type Source interface {
	// N returns the federation size.
	N() int
	// U returns the utility of a coalition.
	U(s combin.Coalition) float64
	// Cached reports whether the coalition has been evaluated in this
	// budget scope.
	Cached(s combin.Coalition) bool
	// Evals returns the number of distinct coalitions charged to this
	// budget scope.
	Evals() int
}

// ContextBinder is implemented by Sources whose fresh evaluations can be
// bound to a context for cooperative cancellation.
type ContextBinder interface {
	// SetContext binds ctx; once it is done, requesting a non-cached
	// utility panics with *CancelError (recovered by shapley.Run).
	SetContext(ctx context.Context)
}

var (
	_ Source        = (*Oracle)(nil)
	_ Source        = (*RunView)(nil)
	_ ContextBinder = (*RunView)(nil)
)

// RunView is a per-run budget scope over a shared Oracle: utilities come
// from the underlying cache (no retraining across runs), but Evals and
// Cached reflect only the coalitions this run has requested, so algorithms
// that stop at a budget γ behave exactly as they would against a fresh
// oracle. This is what makes repeated-sampling experiments (Figs. 7, 8, 10)
// affordable without distorting budget semantics. The view also holds the
// run's context: cancelling it stops this run's fresh evaluations and no
// other's, so any number of views over one oracle may be bound to
// contexts of their own. A view serves one run on one goroutine.
type RunView struct {
	o    *Oracle
	seen *combin.Set

	ctx  context.Context
	done <-chan struct{} // ctx.Done(), nil while unbound
}

// NewRunView opens a fresh budget scope over o. The scope is sized for the
// coalitions o already holds: after a prefetched plan those are exactly
// the ones the run is about to request.
func NewRunView(o *Oracle) *RunView {
	return &RunView{o: o, seen: combin.NewSet(o.Size())}
}

// N implements Source.
func (v *RunView) N() int { return v.o.N() }

// U implements Source, charging the coalition to this run's budget. A
// cached utility is always answered; a miss panics with *CancelError once
// the bound context is done, and evaluates on the oracle otherwise. The
// check reads the Done channel, which takes no lock, where Err locks the
// context's mutex (as of Go 1.24).
func (v *RunView) U(s combin.Coalition) float64 {
	v.seen.Add(s)
	if u, ok := v.o.cache.get(s); ok {
		return u
	}
	select {
	case <-v.done:
		panic(&CancelError{Err: v.ctx.Err()})
	default:
	}
	return v.o.fresh(s)
}

// Cached implements Source: true only if this run already requested s.
func (v *RunView) Cached(s combin.Coalition) bool {
	return v.seen.Has(s)
}

// Evals implements Source: distinct coalitions requested by this run.
func (v *RunView) Evals() int { return v.seen.Len() }

// SetContext implements ContextBinder. It binds this view only: other
// runs over the same oracle keep their own contexts.
func (v *RunView) SetContext(ctx context.Context) {
	v.ctx, v.done = ctx, ctx.Done()
}
