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

var (
	_ Source = (*Oracle)(nil)
	_ Source = (*RunView)(nil)
)

// RunView is a per-run budget scope over a shared Oracle: utilities come
// from the underlying cache (no retraining across runs), but Evals and
// Cached reflect only the coalitions this run has requested, so algorithms
// that stop at a budget γ behave exactly as they would against a fresh
// oracle. This is what makes repeated-sampling experiments (Figs. 7, 8, 10)
// affordable without distorting budget semantics.
type RunView struct {
	o    *Oracle
	seen *combin.Set
}

// NewRunView opens a fresh budget scope over o. The scope is sized for the
// coalitions o already holds: after a prefetched plan those are exactly
// the ones the run is about to request.
func NewRunView(o *Oracle) *RunView {
	return &RunView{o: o, seen: combin.NewSet(o.Size())}
}

// N implements Source.
func (v *RunView) N() int { return v.o.N() }

// U implements Source, charging the coalition to this run's budget.
func (v *RunView) U(s combin.Coalition) float64 {
	v.seen.Add(s)
	return v.o.U(s)
}

// Cached implements Source: true only if this run already requested s.
func (v *RunView) Cached(s combin.Coalition) bool {
	return v.seen.Has(s)
}

// Evals implements Source: distinct coalitions requested by this run.
func (v *RunView) Evals() int { return v.seen.Len() }

// SetContext implements ContextBinder by binding the underlying oracle, so
// cancelling a run cancels the fresh evaluations it would trigger.
func (v *RunView) SetContext(ctx context.Context) { v.o.SetContext(ctx) }

var _ ContextBinder = (*RunView)(nil)
