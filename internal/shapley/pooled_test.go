package shapley

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"fedshap/internal/combin"
	"fedshap/internal/utility"
)

// A NaN and a +Inf utility each end their own run — serial and pooled —
// with the oracle's typed error naming the coalition, and leave nothing
// non-finite behind: not cached, not charged, not written through.
func TestRunPooledNonFiniteUtilityFailsTheRun(t *testing.T) {
	const n = 6
	bad := combin.NewCoalition(1, 3)
	for _, poison := range []float64{math.NaN(), math.Inf(1)} {
		for _, workers := range []int{1, 4} {
			var written atomic.Int64
			o := utility.NewOracle(n, func(s combin.Coalition) float64 {
				if s == bad {
					return poison
				}
				return float64(s.Size())
			})
			o.OnFresh(func(combin.Coalition, float64, int) { written.Add(1) })
			c := &Context{Ctx: context.Background()}
			values, _, err := RunPooled(c, o, ExactMC{}, 1, workers)
			var nf *utility.NonFiniteError
			if !errors.As(err, &nf) || nf.Coalition != bad || values != nil {
				t.Fatalf("%v workers=%d: values %v, err %v; want *utility.NonFiniteError for %s", poison, workers, values, err, bad)
			}
			snap := o.Snapshot()
			for s, u := range snap {
				if math.IsNaN(u) || math.IsInf(u, 0) {
					t.Errorf("%v workers=%d: cache holds %v for %s", poison, workers, u, s)
				}
			}
			if o.Evals() != len(snap) || int(written.Load()) != len(snap) {
				t.Errorf("%v workers=%d: %d charged, %d written through, %d cached", poison, workers, o.Evals(), written.Load(), len(snap))
			}
			// The failure is the run's, not the oracle's: a run that never
			// asks for the coalition still completes.
			if _, _, err := RunPooled(c, o, LeaveOneOut{}, 1, workers); err != nil {
				t.Errorf("%v workers=%d: unrelated run: %v", poison, workers, err)
			}
		}
	}
}
