package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The run shape. A workload run is one discarded round plus measuredRounds
// measured ones. Every round builds its world from scratch, collects
// garbage, then executes a fixed number of operations; every end-to-end
// metric is the median over the measured rounds. Round 0 is dropped because
// it alone pays the process's first page faults, lazy runtime start-up and
// cold file cache (its set-up read 0.87 s against 0.48 s in the prototype).
const (
	measuredRounds = 5
	// checkEvery: the first and every 16th operation of a round is
	// recomputed on the serial library path, outside the timed window.
	checkEvery = 16
	// minOps keeps a round meaningful when -seconds is tiny.
	minOps = 4
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// rate is the operations per second the reference machine (2 cores)
	// sustains; with -seconds it fixes the operation count of a round, so
	// a round is a fixed amount of work, never a fixed duration.
	rate float64
	// clients is the number of closed-loop callers: each issues its next
	// operation only after the previous one completed.
	clients int
	setup   func(ctx context.Context, env *roundEnv) (*round, error)
}

// roundEnv is what a round is built from.
type roundEnv struct {
	seed  int64 // the run's -seed
	index int   // round index; request seeds derive from both
	ops   int
	dir   string    // fresh scratch directory, removed after the round
	rec   *recorder // nil with tracing off
}

// opSeed is the request seed of slot i of this round; slots past ops are
// warm-ups, negative ones name the round's inputs.
func (e *roundEnv) opSeed(slot int) int64 { return deriveSeed(e.seed, e.index, slot) }

// round is a built world, ready to execute operations.
type round struct {
	// op executes operation i inside the timed window. sp is the
	// operation's root span (zero with tracing off).
	op func(ctx context.Context, i int, sp spanRef) error
	// verify re-derives operation i's output on the serial library path
	// and compares bit for bit; it runs after the timed window.
	verify func(ctx context.Context, i int) error
	// layers, when set, adds this round's per-layer numbers (traced pass).
	layers func(ctx context.Context, st *roundStats, out map[string]float64) error
	close  func() error
}

// roundStats is what one round measured.
type roundStats struct {
	setupS     float64
	wallS      float64
	cpuS       float64
	allocBytes float64
	mallocs    float64
	gcPauseS   float64
	opS        []float64 // caller-side latency per operation
	failed     int
}

func (st *roundStats) ops() float64 { return float64(len(st.opS)) }

// The five gated numbers of one round.
func (st *roundStats) opP50() float64      { return median(st.opS) }
func (st *roundStats) opsPerS() float64    { return st.ops() / st.wallS }
func (st *roundStats) cpuMsPerOp() float64 { return st.cpuS * 1e3 / st.ops() }
func (st *roundStats) allocMB() float64    { return st.allocBytes / 1e6 / st.ops() }

// usage samples the process counters the per-operation costs derive from.
type usage struct {
	cpu            time.Duration
	alloc, mallocs uint64
	pause          time.Duration
}

func sampleUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
		pause:   time.Duration(ms.PauseTotalNs),
	}
}

// peakRSSMB is the process's high-water resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// deriveSeed mixes the run seed, the round and a slot into a request seed
// (splitmix64), so no two rounds and no two run seeds share a request.
// Seeds stay below 2^53 and above 0: they travel through JSON, and the
// service reads seed 0 as "default".
func deriveSeed(seed int64, round, slot int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(round+1)<<40 + uint64(slot+1)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x>>11) | 1
}

// runRound builds one round of w, runs its operations closed-loop and
// checks a sample of the outputs. layers, when non-nil, receives the
// round's per-layer numbers.
func runRound(ctx context.Context, w *workload, env roundEnv, tmpBase string, layers map[string]float64, errLog io.Writer) (st roundStats, err error) {
	start := time.Now()
	if err := os.MkdirAll(tmpBase, 0o755); err != nil {
		return st, err
	}
	dir, err := os.MkdirTemp(tmpBase, "round-*")
	if err != nil {
		return st, err
	}
	defer os.RemoveAll(dir)
	env.dir = dir

	r, err := w.setup(ctx, &env)
	if err != nil {
		return st, fmt.Errorf("%s: round %d set-up: %w", w.name, env.index, err)
	}
	defer func() {
		if cerr := r.close(); cerr != nil && err == nil {
			err = fmt.Errorf("%s: round %d close: %w", w.name, env.index, cerr)
		}
	}()
	runtime.GC()

	before := sampleUsage()
	t0 := time.Now()
	st.setupS = t0.Sub(start).Seconds()
	st.opS = make([]float64, env.ops)
	errs := make([]error, env.ops)
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= env.ops {
					return
				}
				sp := env.rec.root("op", i)
				begin := time.Now()
				errs[i] = r.op(ctx, i, sp)
				st.opS[i] = time.Since(begin).Seconds()
				sp.end()
			}
		}()
	}
	wg.Wait()
	st.wallS = time.Since(t0).Seconds()
	after := sampleUsage()
	st.cpuS = (after.cpu - before.cpu).Seconds()
	st.allocBytes = float64(after.alloc - before.alloc)
	st.mallocs = float64(after.mallocs - before.mallocs)
	st.gcPauseS = (after.pause - before.pause).Seconds()

	for i := 0; i < env.ops; i += checkEvery {
		if errs[i] == nil {
			errs[i] = r.verify(ctx, i)
		}
	}
	for i, e := range errs {
		if e != nil {
			if st.failed < 5 {
				fmt.Fprintf(errLog, "%s: round %d op %d: %v\n", w.name, env.index, i, e)
			}
			st.failed++
		}
	}
	if layers != nil && r.layers != nil {
		if err := r.layers(ctx, &st, layers); err != nil {
			return st, fmt.Errorf("%s: round %d layers: %w", w.name, env.index, err)
		}
	}
	return st, nil
}

// opsPerRound turns -seconds into the fixed operation count of one round.
func (w *workload) opsPerRound(seconds int) int {
	n := int(math.Round(w.rate * float64(seconds) / measuredRounds))
	return max(n, minOps)
}

// measurement is the outcome of the untraced rounds of one workload run.
type measurement struct {
	rounds    []roundStats // measured rounds only
	attempted int          // includes the discarded round: its failures count
	failed    int
}

// gated lists, per end-to-end metric, its value in every measured round.
func (m *measurement) gated() map[string][]float64 {
	out := make(map[string][]float64, len(endToEnd))
	for _, r := range m.rounds {
		out["setup_s"] = append(out["setup_s"], r.setupS)
		out["op_s.p50"] = append(out["op_s.p50"], r.opP50())
		out["ops_per_s"] = append(out["ops_per_s"], r.opsPerS())
		out["cpu_ms_per_op"] = append(out["cpu_ms_per_op"], r.cpuMsPerOp())
		out["alloc_mb_per_op"] = append(out["alloc_mb_per_op"], r.allocMB())
	}
	return out
}

// measure runs the discarded round and then `rounds` measured ones with
// tracing off.
func measure(ctx context.Context, w *workload, cfg *runConfig) (*measurement, error) {
	m := &measurement{}
	for i := 0; i <= cfg.rounds; i++ {
		env := roundEnv{seed: cfg.seed, index: i, ops: cfg.opsFor(w)}
		st, err := runRound(ctx, w, env, cfg.tmpBase, nil, cfg.errLog)
		if err != nil {
			return nil, err
		}
		m.attempted += len(st.opS)
		m.failed += st.failed
		if i > 0 {
			m.rounds = append(m.rounds, st)
		}
	}
	return m, nil
}
