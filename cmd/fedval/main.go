// Command fedval values a synthetic federation from the command line: pick
// a dataset family, a model, a federation size and an algorithm, and it
// prints the per-client data values with timing and budget accounting.
//
// Usage:
//
//	fedval -data femnist -model mlp -n 6 -alg ipss
//	fedval -data adult -model xgb -n 10 -alg ipss -gamma 64
//	fedval -data synthetic -setup same-size-noisy-label -noise 0.2 -alg exact
//
// With -server it becomes a client of the fedvald daemon instead of
// computing locally: the job runs in the daemon's worker pool against its
// persistent utility cache, with live progress and Ctrl-C cancellation:
//
//	fedval -server http://127.0.0.1:8787 -data femnist -model mlp -n 6 -alg ipss
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"fedshap"
	"fedshap/internal/dataset"
	"fedshap/internal/experiments"
	"fedshap/internal/metrics"
	"fedshap/internal/shapley"
	"fedshap/internal/theory"
	"fedshap/internal/valserve"
)

// jsonResult is the machine-readable output of -json.
type jsonResult struct {
	Problem     string    `json:"problem"`
	Algorithm   string    `json:"algorithm"`
	Seconds     float64   `json:"seconds"`
	Evaluations int       `json:"evaluations"`
	Values      []float64 `json:"values"`
	Exact       []float64 `json:"exact,omitempty"`
	L2Error     *float64  `json:"l2_error,omitempty"`

	// Anytime fields, present when the job ran with -confidence.
	Confidence    float64   `json:"confidence,omitempty"`
	CILow         []float64 `json:"ci_low,omitempty"`
	CIHigh        []float64 `json:"ci_high,omitempty"`
	EarlyStopped  bool      `json:"early_stopped,omitempty"`
	BudgetUnspent int       `json:"budget_unspent,omitempty"`
}

func main() {
	var (
		data  = flag.String("data", "femnist", "dataset family: femnist | adult | synthetic | csv")
		file  = flag.String("file", "", "CSV file for -data csv (features..., integer label last; header auto-detected)")
		setup = flag.String("setup", string(experiments.SameSizeSameDist),
			"synthetic partition setup: same-size-same-distr | same-size-diff-distr | diff-size-same-distr | same-size-noisy-label | same-size-noisy-feature")
		noise       = flag.Float64("noise", 0.1, "noise level for the noisy synthetic setups (0..0.2)")
		modelKind   = flag.String("model", "mlp", "FL model: mlp | cnn | xgb | logreg | deepmlp")
		n           = flag.Int("n", 6, "number of FL clients (2..127)")
		algName     = flag.String("alg", "ipss", "algorithm: ipss | ipss-rescaled | exact | perm | stratified-mc | stratified-cc | kgreedy | tmc | gtb | ccshapley | digfl | or | lambdamr | gtg")
		gamma       = flag.Int("gamma", 0, "sampling budget γ (0 = paper's Table III / n·ln n policy)")
		k           = flag.Int("k", 2, "K for kgreedy")
		seed        = flag.Int64("seed", 1, "random seed")
		scaleName   = flag.String("scale", "small", "substrate scale: tiny | small")
		compare     = flag.Bool("compare", false, "also compute exact values and report the l2 error (2^n trainings)")
		jsonOut     = flag.Bool("json", false, "emit the result as JSON")
		server      = flag.String("server", "", "fedvald base URL; when set, run the job remotely instead of locally")
		showTrace   = flag.Bool("trace", false, "in -server mode, fetch the job's trace timeline after it finishes and print it to stderr")
		poll        = flag.Duration("poll", 300*time.Millisecond, "polling-fallback interval in -server mode (progress normally streams over server-sent events)")
		confidence  = flag.Float64("confidence", 0, "in -server mode, stream anytime confidence intervals at this simultaneous level, e.g. 0.9 (0 = off)")
		rankStop    = flag.Bool("rank-stop", false, "in -server mode, stop the job early once every pairwise client ranking is resolved at -confidence (plan-exhaustive algorithms only)")
		watchValues = flag.Bool("watch-values", false, "in -server mode, print each interim values snapshot as it streams in")
		deadline    = flag.Duration("deadline", 0, "in -server mode, bound the job's run time once it starts executing; an overrunning job terminates as timed_out (0 = no deadline)")
		evalWorkers = flag.Int("eval-workers", 0, "concurrent coalition evaluations: the algorithm's deterministic sampling plan is trained on this many workers, bit-identically to serial (0 = all cores locally, the daemon's default with -server; 1 = serial)")
	)
	flag.Parse()

	// One request names the job in both modes, in the daemon's vocabulary
	// (valserve.ParseScale / ParseModel / NewValuer / BuildProblem), so a
	// local run and a -server run of one command line value the same
	// problem with the same algorithm.
	req := fedshap.JobRequest{
		Data:            strings.ToLower(*data),
		Setup:           *setup,
		Noise:           *noise,
		Model:           *modelKind,
		N:               *n,
		Algorithm:       *algName,
		Gamma:           *gamma,
		K:               *k,
		Seed:            *seed,
		Scale:           *scaleName,
		Workers:         *evalWorkers,
		Confidence:      *confidence,
		RankStop:        *rankStop,
		DeadlineSeconds: deadline.Seconds(),
	}
	if *server != "" {
		if req.Data == "csv" {
			fatal(errors.New("-data csv is not available in -server mode (the file is local)"))
		}
		if *compare {
			fatal(errors.New("-compare is not available in -server mode"))
		}
		if *watchValues && *confidence == 0 {
			fatal(errors.New("-watch-values requires -confidence (values events stream only for anytime jobs)"))
		}
		runRemote(*server, req, *jsonOut, *showTrace, *watchValues, *poll)
		return
	}

	if req.Gamma == 0 {
		req.Gamma = theory.GammaForN(req.N)
	}
	if req.N < 2 || req.N > 127 {
		fatal(fmt.Errorf("n=%d out of range [2,127]", req.N))
	}
	var p *experiments.Problem
	var err error
	if req.Data == "csv" {
		p, err = csvProblem(*file, req)
	} else {
		p, err = valserve.BuildProblem(req)
	}
	if err != nil {
		fatal(err)
	}
	alg, err := valserve.NewValuer(req.Algorithm, req.Gamma, req.K)
	if err != nil {
		fatal(err)
	}

	// Each run trains on a fresh oracle, its plan first evaluated on the
	// -eval-workers pool.
	run := func(alg shapley.Valuer, seed int64) (shapley.Values, int) {
		c := &shapley.Context{Spec: p.Spec, Ctx: context.Background()}
		values, evals, err := shapley.RunPooled(c, p.Oracle(), alg, seed, *evalWorkers)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", alg.Name(), err))
		}
		return values, evals
	}
	var exact shapley.Values
	if *compare {
		fmt.Fprintf(os.Stderr, "computing exact values (%d coalition trainings)...\n", 1<<uint(*n))
		exact, _ = run(shapley.ExactMC{}, *seed+1)
	}
	start := time.Now()
	values, evals := run(alg, *seed+2)
	seconds := time.Since(start).Seconds()
	l2 := math.NaN()
	if exact != nil {
		l2 = metrics.L2RelativeError(values, exact)
	}

	if *jsonOut {
		out := jsonResult{
			Problem:     p.Name,
			Algorithm:   alg.Name(),
			Seconds:     seconds,
			Evaluations: evals,
			Values:      values,
		}
		if exact != nil {
			out.Exact = exact
			out.L2Error = &l2
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("problem:    %s\n", p.Name)
	fmt.Printf("algorithm:  %s\n", alg.Name())
	fmt.Printf("time:       %.3fs   coalition evaluations: %d\n", seconds, evals)
	if exact != nil {
		fmt.Printf("l2 error:   %.4f\n", l2)
	}
	fmt.Println()
	fmt.Printf("%-10s %12s", "client", "value")
	if exact != nil {
		fmt.Printf(" %12s", "exact")
	}
	fmt.Println()
	for i, v := range values {
		fmt.Printf("client-%-3d %12.4f", i, v)
		if exact != nil {
			fmt.Printf(" %12.4f", exact[i])
		}
		fmt.Println()
	}
}

// runRemote submits the job to a fedvald daemon, streams progress to
// stderr, and prints the final report in the same formats as a local run.
// Progress arrives over the daemon's server-sent event stream; if the
// stream is unavailable (older daemon, proxy in the way) the client falls
// back to polling at the -poll interval. Ctrl-C cancels the remote job
// before exiting.
func runRemote(server string, req fedshap.JobRequest, jsonOut, showTrace, watchValues bool, poll time.Duration) {
	client := fedshap.NewServiceClient(server)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	st, err := client.Submit(ctx, req)
	if err != nil {
		fatal(err)
	}
	jobID := st.ID
	fmt.Fprintf(os.Stderr, "fedval: submitted %s (fingerprint %s, budget %d)\n", st.ID, st.Fingerprint, st.Budget)

	// Print a line whenever the job makes progress. Event snapshots can
	// arrive out of order under concurrent evaluation, so only advances
	// are shown.
	lastFresh := -1
	show := func(s *fedshap.JobStatus) {
		if s.FreshEvals > lastFresh {
			lastFresh = s.FreshEvals
			fmt.Fprintf(os.Stderr, "fedval: %-8s fresh evaluations %d/%d (warm-cached %d)\n",
				s.State, s.FreshEvals, s.Budget, s.WarmedCoalitions)
		}
	}
	// Interim anytime snapshots ride the same event stream as lifecycle
	// events; -watch-values prints each one as a compact interval line.
	var onValues func(*fedshap.InterimValues)
	if watchValues {
		onValues = func(iv *fedshap.InterimValues) {
			parts := make([]string, len(iv.Values))
			for i, v := range iv.Values {
				parts[i] = fmt.Sprintf("%s=%.3f[%.3f,%.3f]", iv.Names[i], v, iv.CILow[i], iv.CIHigh[i])
			}
			fmt.Fprintf(os.Stderr, "fedval: values  seen %d/%d resolved=%v  %s\n",
				iv.SeenCoalitions, iv.PlannedCoalitions, iv.Resolved, strings.Join(parts, " "))
		}
	}
	st, err = client.WatchValues(ctx, jobID, func(event string, s *fedshap.JobStatus) { show(s) }, onValues)
	if err != nil && ctx.Err() == nil {
		fmt.Fprintf(os.Stderr, "fedval: event stream unavailable (%v); falling back to polling\n", err)
		st, err = client.Wait(ctx, jobID, poll, show)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			// Interrupted: cancel the remote job before giving up. The
			// interrupt may have landed mid-poll (Wait returns no status
			// then), so cancel by the submit-time ID.
			cctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			if cst, cerr := client.Cancel(cctx, jobID); cerr == nil {
				fatal(fmt.Errorf("interrupted; job %s is now %s", cst.ID, cst.State))
			}
		}
		fatal(err)
	}
	if showTrace {
		// Fetch before judging the terminal state, so a failed or
		// cancelled job's timeline still prints — that is when it is most
		// wanted.
		tctx, tcancel := context.WithTimeout(context.Background(), 3*time.Second)
		tr, terr := client.Trace(tctx, jobID)
		tcancel()
		if terr != nil {
			fmt.Fprintf(os.Stderr, "fedval: trace unavailable: %v\n", terr)
		} else {
			printTrace(tr)
		}
	}
	switch st.State {
	case fedshap.JobDone:
	case fedshap.JobCancelled:
		fatal(fmt.Errorf("job %s was cancelled: %s", st.ID, st.Error))
	default:
		fatal(fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error))
	}

	rep := st.Report
	if jsonOut {
		out := jsonResult{
			Problem:       st.Problem,
			Algorithm:     rep.Algorithm,
			Seconds:       rep.Seconds,
			Evaluations:   rep.Evaluations,
			Values:        rep.Values,
			Confidence:    rep.Confidence,
			CILow:         rep.CILow,
			CIHigh:        rep.CIHigh,
			EarlyStopped:  rep.EarlyStopped,
			BudgetUnspent: rep.BudgetUnspent,
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("problem:    %s\n", st.Problem)
	fmt.Printf("algorithm:  %s\n", rep.Algorithm)
	fmt.Printf("time:       %.3fs   fresh coalition evaluations: %d (warm-cached %d)\n",
		rep.Seconds, rep.Evaluations, st.WarmedCoalitions)
	if rep.EarlyStopped {
		fmt.Printf("early stop: rankings resolved at confidence %.2f; %d of %d budgeted evaluations unspent\n",
			rep.Confidence, rep.BudgetUnspent, st.Budget)
	}
	fmt.Println()
	hasCI := len(rep.CILow) == len(rep.Values) && len(rep.CIHigh) == len(rep.Values) && len(rep.Values) > 0
	fmt.Printf("%-10s %12s", "client", "value")
	if hasCI {
		fmt.Printf(" %12s %12s", "ci-low", "ci-high")
	}
	fmt.Println()
	for i, v := range rep.Values {
		fmt.Printf("%-10s %12.4f", rep.Names[i], v)
		if hasCI {
			fmt.Printf(" %12.4f %12.4f", rep.CILow[i], rep.CIHigh[i])
		}
		fmt.Println()
	}
}

// printTrace renders a job's trace timeline to stderr: one line per span,
// offset from the first recorded span, with its source and attributes.
// Worker-side dispatch spans show up under the worker's name, so the
// split between daemon phases and fleet work is visible at a glance.
func printTrace(tr *fedshap.JobTrace) {
	fmt.Fprintf(os.Stderr, "fedval: trace for %s (%s, %d spans)\n", tr.JobID, tr.State, len(tr.Spans))
	if len(tr.Spans) == 0 {
		fmt.Fprintln(os.Stderr, "fedval:   no spans recorded (job predates this daemon life)")
		return
	}
	base := tr.Spans[0].Start
	for _, sp := range tr.Spans {
		dur := "     open"
		if sp.End != nil {
			dur = fmt.Sprintf("%8.3fs", sp.DurationSeconds)
		}
		line := fmt.Sprintf("  +%8.3fs %s %-14s %s", sp.Start.Sub(base).Seconds(), dur, sp.Name, sp.Source)
		if len(sp.Attrs) > 0 {
			keys := make([]string, 0, len(sp.Attrs))
			for k := range sp.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				line += fmt.Sprintf(" %s=%s", k, sp.Attrs[k])
			}
		}
		fmt.Fprintln(os.Stderr, line)
	}
}

// csvProblem partitions a user-supplied CSV into an IID federation with a
// held-out test split.
func csvProblem(file string, req fedshap.JobRequest) (*experiments.Problem, error) {
	if file == "" {
		return nil, fmt.Errorf("-data csv requires -file")
	}
	sc, err := valserve.ParseScale(req.Scale)
	if err != nil {
		return nil, err
	}
	kind, err := valserve.ParseModel(req.Model)
	if err != nil {
		return nil, err
	}
	pool, err := dataset.LoadCSV(file, 0)
	if err != nil {
		return nil, err
	}
	return experiments.NewCSVProblem(file, pool, req.N, kind, sc, req.Seed)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fedval:", err)
	os.Exit(1)
}
