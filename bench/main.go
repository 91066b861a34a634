// Command bench is fedvalbench: the repository's end-to-end and per-layer
// performance benchmark. See README.md in this directory for what each
// workload is for, how the metrics interact and how to read the output.
//
//	bash bench/run.sh --workload mlp-cold --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --seed 1                  # every workload, tracing off
//	bash bench/run.sh --seed 1 --trace 1        # the traced pass
//	bash bench/run.sh --selfcheck               # two sets, compared
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics (end-to-end with --trace 0, per-layer with
// --trace 1). The exit code is non-zero when an operation or an output
// check failed.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

var workloads = []*workload{mlpCold, samplerFree, serviceMixed, fleetMLP}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds int // nominal measured seconds of a run; sizes the rounds
	rounds  int // measured rounds
	ops     int // operations per round; 0 derives it from seconds
	trace   bool
	tmpBase string
	outDir  string
	log     io.Writer // the human-readable report
	errLog  io.Writer
}

func (c *runConfig) opsFor(w *workload) int {
	if c.ops > 0 {
		return c.ops
	}
	return w.opsPerRound(c.seconds)
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: mlp-cold | sampler-free | service-mixed | fleet-mlp (empty runs all four)")
		seed      = flag.Int64("seed", 1, "input seed: the same seed gives the same requests")
		seconds   = flag.Int("seconds", 15, "nominal measured seconds per run; fixes the operation count of a round")
		trace     = flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
		selfcheck = flag.Bool("selfcheck", false, "run two complete sets and fail if any end-to-end median disagrees by more than its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "usage: bench [--workload name] [--seed n] [--seconds s] [--trace 0|1] [--selfcheck]")
		os.Exit(2)
	}
	// One caller's worth of parallelism, whatever the host: the numbers
	// are recorded for a 2-wide pool on 2 cores.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, *name, *selfcheck, &runConfig{
		seed: *seed, seconds: *seconds, rounds: measuredRounds, trace: *trace != 0,
		tmpBase: filepath.Join(".bench_build", "tmp"),
		outDir:  filepath.Join(".bench_build", "out"),
		log:     os.Stdout, errLog: os.Stderr,
	})
	stop()
	os.Exit(code)
}

func run(ctx context.Context, name string, selfcheck bool, cfg *runConfig) int {
	selected := workloads
	if name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == name {
				selected = []*workload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(cfg.errLog, "bench: unknown workload %q\n", name)
			return 2
		}
	}
	printHeader(cfg)
	if selfcheck {
		ok, err := selfCheck(ctx, selected, cfg)
		if err != nil {
			fmt.Fprintln(cfg.errLog, "bench:", err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	}
	total := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range selected {
		rep, err := collect(ctx, w, cfg)
		if err != nil {
			fmt.Fprintln(cfg.errLog, "bench:", err)
			return 1
		}
		rep.print(cfg)
		res := rep.result(cfg.trace)
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		total.Correct = total.Correct && res.Correct
		for k, v := range res.Metrics {
			if len(selected) > 1 {
				k = w.name + "/" + k
			}
			total.Metrics[k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(cfg.errLog, "bench:", err)
		return 1
	}
	fmt.Fprintln(cfg.log, string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

// report is everything one run of one workload measured.
type report struct {
	w         *workload
	gated     map[string][]float64 // end-to-end metric → value per measured round
	p90       float64              // over every measured operation, not gated
	samples   int
	layers    map[string]float64 // per-layer metrics; nil with tracing off
	attempted int
	failed    int
}

// collect runs one workload once: the untraced rounds and, with cfg.trace,
// the traced round and the layer probes after them.
func collect(ctx context.Context, w *workload, cfg *runConfig) (*report, error) {
	m, err := measure(ctx, w, cfg)
	if err != nil {
		return nil, err
	}
	rep := &report{w: w, gated: m.gated(), attempted: m.attempted, failed: m.failed}
	rep.p90, rep.samples = pooledP90(m)
	if cfg.trace {
		st, layers, err := tracedPass(ctx, w, cfg, m)
		if err != nil {
			return nil, err
		}
		rep.layers = layers
		rep.attempted += len(st.opS)
		rep.failed += st.failed
	}
	return rep, nil
}

// result picks the metrics the caller asked for: end-to-end medians, or the
// per-layer numbers of the traced pass.
func (r *report) result(trace bool) *result {
	res := &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	if trace {
		for _, d := range perLayer {
			res.Metrics[d.name] = metricValue{r.layers[d.name], d.unit}
		}
		return res
	}
	for _, d := range endToEnd {
		res.Metrics[d.name] = metricValue{median(r.gated[d.name]), d.unit}
	}
	return res
}

// print writes the human-readable report: every metric by name with its
// unit; end-to-end ones with median, quartiles and sample count.
func (r *report) print(cfg *runConfig) {
	out := cfg.log
	fmt.Fprintf(out, "\n%s: %d+1 rounds × %d operations, %d closed-loop client(s)\n",
		r.w.name, cfg.rounds, cfg.opsFor(r.w), r.w.clients)
	fmt.Fprintf(out, "  %-18s %-5s %14s %14s %14s %3s  %s\n", "metric", "unit", "median", "q1", "q3", "n", "rounds")
	for _, d := range endToEnd {
		xs := r.gated[d.name]
		q1, q3 := quartiles(xs)
		fmt.Fprintf(out, "  %-18s %-5s %14.6g %14.6g %14.6g %3d  %s\n", d.name, d.unit, median(xs), q1, q3, len(xs), fmtRounds(xs))
	}
	fmt.Fprintf(out, "  %-18s %-5s %14.6g %29s %3d  (every measured operation; not gated)\n", "op_s.p90", "s", r.p90, "", r.samples)
	if r.layers != nil {
		fmt.Fprintf(out, "  %-36s %-6s %14s\n", "per-layer metric", "unit", "value")
		for _, d := range perLayer {
			fmt.Fprintf(out, "  %-36s %-6s %14.6g\n", d.name, d.unit, r.layers[d.name])
		}
		if p := r.layers["process.parts_over_whole"]; p < 0.9 {
			fmt.Fprintf(out, "  warning: the layers' spans cover only %.0f%% of an operation\n", 100*p)
		}
		if o := r.layers["process.trace_overhead"]; o > 1.05 {
			fmt.Fprintf(out, "  warning: the traced round ran %.0f%% slower than the untraced ones\n", 100*(o-1))
		}
	}
	fmt.Fprintf(out, "  attempted %d, failed %d\n", r.attempted, r.failed)
}

// pooledP90 is the 90th percentile over every measured operation of the
// run: with ≥100 samples, ten lie beyond it.
func pooledP90(m *measurement) (float64, int) {
	var all []float64
	for _, r := range m.rounds {
		all = append(all, r.opS...)
	}
	return percentile(all, 0.90), len(all)
}

// tracedPass runs one more round with span recording on, then the layer
// probes, and derives the process.* metrics from both passes.
func tracedPass(ctx context.Context, w *workload, cfg *runConfig, m *measurement) (*roundStats, map[string]float64, error) {
	layers := make(map[string]float64, len(perLayer))
	rec := newRecorder()
	env := roundEnv{seed: cfg.seed, index: cfg.rounds + 1, ops: cfg.opsFor(w), rec: rec}
	st, err := runRound(ctx, w, env, cfg.tmpBase, layers, cfg.errLog)
	if err != nil {
		return nil, nil, err
	}

	spans := rec.snapshot()
	path, err := writeSpans(cfg.outDir, w.name, spans)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(cfg.log, "%s: %d spans written to %s\n", w.name, len(spans), path)
	self := selfTimes(spans)
	var covered []float64
	for i, s := range spans {
		if s.Name == "op" && s.seconds() > 0 {
			covered = append(covered, 1-self[i]/s.seconds())
		}
	}
	layers["process.parts_over_whole"] = median(covered)

	gated := m.gated()
	for _, d := range endToEnd {
		layers["process.round_spread."+d.name] = spread(gated[d.name])
	}
	if base := median(gated["op_s.p50"]); base > 0 {
		layers["process.trace_overhead"] = st.opP50() / base
	}
	layers["process.op_s.p90"], _ = pooledP90(m)
	var allocs, pauses, ops float64
	for _, r := range m.rounds {
		allocs += r.mallocs
		pauses += r.gcPauseS
		ops += r.ops()
	}
	layers["process.allocs_per_op"] = allocs / ops
	layers["process.gc_pause_ms_per_op"] = 1e3 * pauses / ops

	dir, err := os.MkdirTemp(cfg.tmpBase, "probe-*")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	if err := probeLayers(ctx, cfg.seed, dir, layers); err != nil {
		return nil, nil, fmt.Errorf("layer probes: %w", err)
	}
	layers["process.peak_rss_mb"] = peakRSSMB()
	return &st, layers, nil
}

// selfCheck runs every selected workload twice, the second set in reverse
// order, and compares the sets' end-to-end medians against the bounds.
func selfCheck(ctx context.Context, selected []*workload, cfg *runConfig) (bool, error) {
	if cfg.trace {
		return false, errors.New("--selfcheck compares untraced runs; drop --trace")
	}
	quiet := *cfg
	quiet.log = io.Discard
	sets := [2]map[string]*measurement{{}, {}}
	for s := range sets {
		order := append([]*workload(nil), selected...)
		if s == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			fmt.Fprintf(cfg.log, "set %d: %s\n", s+1, w.name)
			m, err := measure(ctx, w, &quiet)
			if err != nil {
				return false, err
			}
			sets[s][w.name] = m
		}
	}
	ok := true
	fmt.Fprintf(cfg.log, "\n%-32s %14s %14s %8s %8s\n", "workload/metric", "set 1", "set 2", "worse", "spread")
	for _, w := range selected {
		a, b := sets[0][w.name], sets[1][w.name]
		if a.failed+b.failed > 0 {
			ok = false
			fmt.Fprintf(cfg.log, "%s: %d operations failed\n", w.name, a.failed+b.failed)
		}
		ga, gb := a.gated(), b.gated()
		for _, d := range endToEnd {
			ma, mb := median(ga[d.name]), median(gb[d.name])
			// How much the worse set is worse than the better one.
			worse := max(ma, mb)/min(ma, mb) - 1
			sp := max(spread(ga[d.name]), spread(gb[d.name]))
			verdict := ""
			if worse > d.bound {
				ok = false
				verdict = fmt.Sprintf("  DISAGREE beyond %.2f: rounds %s vs %s", d.bound, fmtRounds(ga[d.name]), fmtRounds(gb[d.name]))
			} else if sp > d.bound/2 {
				verdict = fmt.Sprintf("  noisy: round spread over half the bound %.2f", d.bound)
			}
			fmt.Fprintf(cfg.log, "%-32s %14.6g %14.6g %7.1f%% %7.1f%%%s\n", w.name+"/"+d.name, ma, mb, 100*worse, 100*sp, verdict)
		}
	}
	if ok {
		fmt.Fprintln(cfg.log, "selfcheck: both sets agree within the bounds")
	} else {
		fmt.Fprintln(cfg.log, "selfcheck: FAILED")
	}
	return ok, nil
}

func fmtRounds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// printHeader describes the machine, so a noisy run explains itself.
func printHeader(cfg *runConfig) {
	load := "unknown"
	if buf, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(buf)); len(f) > 0 {
			load = f[0]
		}
	}
	fmt.Fprintf(cfg.log, "fedvalbench: %s %s/%s, nproc=%d, GOMAXPROCS=%d, seed=%d, seconds=%d, trace=%v\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(cfg.log, "fedvalbench: scratch %s (tmpfs=%v), 1-minute load average %s\n", cfg.tmpBase, onTmpfs(cfg.tmpBase), load)
}

// onTmpfs reports whether dir (or its nearest existing parent) is on
// tmpfs: a journal on tmpfs never waits for a disk.
func onTmpfs(dir string) bool {
	const tmpfsMagic = 0x01021994
	for {
		var fs syscall.Statfs_t
		if err := syscall.Statfs(dir, &fs); err == nil {
			return fs.Type == tmpfsMagic
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return false
		}
		dir = parent
	}
}
