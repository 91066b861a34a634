package utility

import (
	"context"
	"errors"
	"sync"
	"testing"

	"fedshap/internal/combin"
)

func TestRunViewIndependentBudgets(t *testing.T) {
	calls := 0
	o := NewOracle(4, func(s combin.Coalition) float64 {
		calls++
		return float64(s.Size())
	})
	a := NewRunView(o)
	b := NewRunView(o)

	s := combin.NewCoalition(0, 1)
	a.U(s)
	if a.Evals() != 1 {
		t.Errorf("view a evals = %d", a.Evals())
	}
	if b.Evals() != 0 {
		t.Errorf("view b evals = %d before any request", b.Evals())
	}
	// Second view requesting the same coalition is charged, but the
	// underlying oracle does not retrain.
	b.U(s)
	if b.Evals() != 1 {
		t.Errorf("view b evals = %d", b.Evals())
	}
	if calls != 1 {
		t.Errorf("underlying evaluations = %d, want 1 (cache shared)", calls)
	}
}

func TestRunViewCachedScopedToRun(t *testing.T) {
	o := NewOracle(3, func(s combin.Coalition) float64 { return 0 })
	o.U(combin.Empty) // warm the shared cache
	v := NewRunView(o)
	if v.Cached(combin.Empty) {
		t.Errorf("view should not see other scopes' requests as cached")
	}
	v.U(combin.Empty)
	if !v.Cached(combin.Empty) {
		t.Errorf("view should see its own requests")
	}
}

func TestRunViewChargesDistinctOnly(t *testing.T) {
	o := NewOracle(3, func(s combin.Coalition) float64 { return 0 })
	v := NewRunView(o)
	s := combin.NewCoalition(1)
	v.U(s)
	v.U(s)
	v.U(s)
	if v.Evals() != 1 {
		t.Errorf("repeat requests charged %d times", v.Evals())
	}
}

func TestRunViewN(t *testing.T) {
	o := NewOracle(7, func(s combin.Coalition) float64 { return 0 })
	if NewRunView(o).N() != 7 {
		t.Errorf("view N mismatch")
	}
}

// TestRunViewsKeepTheirOwnContexts: each run's context lives in its own
// budget scope, so views over one shared oracle neither clash nor override
// each other.
func TestRunViewsKeepTheirOwnContexts(t *testing.T) {
	// catch runs fn and returns what it panicked with.
	catch := func(fn func()) (r any) {
		defer func() { r = recover() }()
		fn()
		return nil
	}

	t.Run("different context types", func(t *testing.T) {
		o := NewOracle(4, func(s combin.Coalition) float64 { return float64(s.Size()) })
		cctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		type key struct{}
		contexts := []context.Context{cctx, context.WithValue(context.Background(), key{}, 1), context.Background()}
		for i, ctx := range contexts {
			v := NewRunView(o)
			if r := catch(func() { v.SetContext(ctx) }); r != nil {
				t.Fatalf("binding view %d to a %T panicked: %v", i, ctx, r)
			}
			if got := v.U(combin.NewCoalition(i)); got != 1 {
				t.Fatalf("view %d: U = %v, want 1", i, got)
			}
		}
	})

	t.Run("cancelling one run leaves the other", func(t *testing.T) {
		var calls sync.Map
		o := NewOracle(8, func(s combin.Coalition) float64 {
			calls.Store(s, true)
			return float64(s.Size())
		})
		ctxA, cancelA := context.WithCancel(context.Background())
		ctxB, cancelB := context.WithCancel(context.Background())
		defer cancelB()
		a, b := NewRunView(o), NewRunView(o)
		a.SetContext(ctxA)
		b.SetContext(ctxB) // bound last: it must not become a's context
		warm := combin.NewCoalition(0, 1)
		a.U(warm)
		cancelA()

		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if got := a.U(warm); got != 2 {
				t.Errorf("a's cached read after its cancel = %v, want 2", got)
			}
			r := catch(func() { a.U(combin.NewCoalition(2)) })
			a, ok := r.(*Abort)
			if !ok || !errors.Is(a, context.Canceled) {
				t.Errorf("a's miss after its cancel panicked with %v, want an *Abort carrying context.Canceled", r)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 3; i < 8; i++ {
				if r := catch(func() { b.U(combin.NewCoalition(i)) }); r != nil {
					t.Errorf("b's miss on {%d} after a's cancel panicked: %v", i, r)
				}
			}
		}()
		wg.Wait()
		if _, ok := calls.Load(combin.NewCoalition(2)); ok {
			t.Error("a cancelled run still evaluated its miss")
		}
		if b.Evals() != 5 || o.Evals() != 6 {
			t.Errorf("b charged %d and the oracle evaluated %d coalitions, want 5 and 6", b.Evals(), o.Evals())
		}
	})
}
