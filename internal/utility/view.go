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
	// utility panics with an *Abort carrying ctx.Err() (recovered by
	// shapley.Run).
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
//
// The meter is keyed by the oracle's own cache: every coalition a run
// requests is in the cache once the request returns, and its cache entry
// keeps one id for the oracle's lifetime (entryID), so the view keeps one
// bit per entry id instead of a set of coalitions. A request thus costs one
// cache probe and one bit test, and a miss one insert. The bitset is
// presized for the entries the oracle holds when the view opens — after a
// prefetched plan, those are the ones the run is about to request — and
// doubles when a later entry's id lies past it.
type RunView struct {
	o *Oracle
	// requested has bit id set for every cache entry id this run
	// requested; evals counts the run's distinct requests.
	requested []uint64
	evals     int

	ctx  context.Context
	done <-chan struct{} // ctx.Done(), nil while unbound
}

// NewRunView opens a fresh budget scope over o, with its bitset sized for
// every entry o holds.
func NewRunView(o *Oracle) *RunView {
	_, longest := o.cache.counts()
	return &RunView{o: o, requested: make([]uint64, (longest*numShards+63)/64)}
}

// N implements Source.
func (v *RunView) N() int { return v.o.N() }

// U implements Source, charging the coalition to this run's budget. A
// cached utility is always answered; a miss aborts with the context's error
// once the bound context is done, and evaluates on the oracle otherwise.
func (v *RunView) U(s combin.Coalition) float64 {
	u, _ := v.Request(s)
	return u
}

// Request is U, also reporting whether the oracle's cache answered it
// (hit) or the oracle evaluated s for this request. A miss is charged
// before the cancellation check, so Evals counts a miss that aborts too.
// The check reads the Done channel, which takes no lock, where Err locks
// the context's mutex (as of Go 1.24); the Abort is built only then.
func (v *RunView) Request(s combin.Coalition) (u float64, hit bool) {
	h := s.Hash()
	u, id, hit := v.o.cache.lookup(s, h)
	if hit {
		if v.mark(id) {
			v.evals++
		}
		return u, true
	}
	// An entry this run requested is cached, so a miss is new to the run.
	v.evals++
	select {
	case <-v.done:
		panic(&Abort{Err: v.ctx.Err()})
	default:
	}
	u, id = v.o.fresh(s, h)
	v.mark(id)
	return u, false
}

// mark sets entry id's bit, reporting whether it was clear.
func (v *RunView) mark(id int) bool {
	w, bit := id>>6, uint64(1)<<(uint(id)&63)
	if w >= len(v.requested) {
		v.requested = append(v.requested, make([]uint64, max(len(v.requested), w+1-len(v.requested)))...)
	}
	if v.requested[w]&bit != 0 {
		return false
	}
	v.requested[w] |= bit
	return true
}

// Cached implements Source: true only if this run already requested s.
func (v *RunView) Cached(s combin.Coalition) bool {
	_, id, ok := v.o.cache.lookup(s, s.Hash())
	return ok && id>>6 < len(v.requested) && v.requested[id>>6]&(1<<(uint(id)&63)) != 0
}

// Evals implements Source: distinct coalitions requested by this run.
func (v *RunView) Evals() int { return v.evals }

// SetContext implements ContextBinder. It binds this view only: other
// runs over the same oracle keep their own contexts.
func (v *RunView) SetContext(ctx context.Context) {
	v.ctx, v.done = ctx, ctx.Done()
}
