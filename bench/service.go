package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"fedshap"
	"fedshap/internal/combin"
	"fedshap/internal/evalnet"
	"fedshap/internal/shapley"
	"fedshap/internal/valserve"
)

// The service workloads run fedvald in this process: the real Manager and
// HTTP handler on a loopback listener, driven through the public
// ServiceClient. Nothing is exec'd — process start-up was the noise that
// sank the first attempt at this benchmark.

// daemon is one life of an in-process fedvald.
type daemon struct {
	mgr    *valserve.Manager
	srv    *httptest.Server
	httpc  *http.Client
	client *fedshap.ServiceClient
}

func startDaemon(cfg valserve.Config) (*daemon, error) {
	mgr, err := valserve.NewManager(cfg)
	if err != nil {
		return nil, err
	}
	srv := httptest.NewServer(valserve.NewHandler(mgr))
	httpc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	return &daemon{
		mgr: mgr, srv: srv, httpc: httpc,
		// Retry stays nil: a refused submission must surface as a failed
		// operation, not hide as latency.
		client: &fedshap.ServiceClient{BaseURL: srv.URL, HTTPClient: httpc},
	}, nil
}

// stop shuts the daemon down the way fedvald does: stop serving, then
// close the manager (journal and store compaction).
func (d *daemon) stop() error {
	d.httpc.CloseIdleConnections()
	d.srv.Close()
	return d.mgr.Close()
}

// job is one entry of a round's fixed schedule.
type job struct {
	req  fedshap.JobRequest
	warm bool // verbatim resubmit of a vocabulary request: 0 fresh evaluations
	// fresh is the number of fresh evaluations a cold job must report: the
	// distinct coalitions of its plan.
	fresh int
}

// jobResult is what the client saw of one job.
type jobResult struct {
	id       string
	sp       spanRef
	submit   time.Duration
	seen     time.Time // terminal event arrived
	finished time.Time // the daemon's FinishedAt
	fresh    int
	values   fedshap.Values
}

// service-mixed's job and its mix.
const (
	mixedVocabulary = 16 // fingerprints filled in the first daemon life
	mixedWarmEvery  = 3  // every third job is a warm resubmit (1 warm : 2 cold)
	mixedConfEvery  = 4  // every fourth cold job asks for anytime intervals
)

func mixedRequest(seed int64) fedshap.JobRequest {
	return fedshap.JobRequest{Data: "femnist", Model: "logreg", N: 8, Scale: "tiny", Algorithm: "ipss", Gamma: 24, Seed: seed}
}

// planFresh returns the fresh evaluations a cold run of req costs.
func planFresh(req fedshap.JobRequest) (int, error) {
	alg, err := valserve.NewValuer(req.Algorithm, req.Gamma, req.K)
	if err != nil {
		return 0, err
	}
	plan, ok := shapley.PlanFor(alg, req.N, req.Seed+2)
	if !ok {
		return 0, fmt.Errorf("%s exposes no plan", req.Algorithm)
	}
	return distinct(plan), nil
}

// mixedSchedule is the deterministic request sequence of one service-mixed
// round: positions 2, 5, 8, … resubmit a vocabulary request verbatim, every
// other position is a fingerprint no one has seen. The 1:2 mix is
// deliberate: at 1:1 the median latency falls in the gap between the warm
// and the cold mode and does not repeat.
func mixedSchedule(seed int64, round, ops int) (vocabulary []fedshap.JobRequest, jobs []job, err error) {
	for k := 0; k < mixedVocabulary; k++ {
		vocabulary = append(vocabulary, mixedRequest(deriveSeed(seed, round, -2-k)))
	}
	cold, warm := 0, 0
	for i := 0; i < ops; i++ {
		if i%mixedWarmEvery == mixedWarmEvery-1 {
			jobs = append(jobs, job{req: vocabulary[warm%mixedVocabulary], warm: true})
			warm++
			continue
		}
		req := mixedRequest(deriveSeed(seed, round, i))
		if cold%mixedConfEvery == mixedConfEvery-1 {
			req.Confidence = 0.9
		}
		cold++
		fresh, err := planFresh(req)
		if err != nil {
			return nil, nil, err
		}
		jobs = append(jobs, job{req: req, fresh: fresh})
	}
	return vocabulary, jobs, nil
}

// runJob is the service operation: Submit, follow the SSE stream to the
// terminal event, and check what the report claims.
func runJob(ctx context.Context, c *fedshap.ServiceClient, j job, sp spanRef) (jobResult, error) {
	res := jobResult{sp: sp}
	begin := time.Now()
	sub := sp.child("valserve.submit")
	st, err := c.Submit(ctx, j.req)
	sub.end()
	res.submit = time.Since(begin)
	if err != nil {
		return res, err
	}
	res.id = st.ID
	final, err := c.WatchJob(ctx, st.ID, nil)
	res.seen = time.Now()
	if err != nil {
		return res, err
	}
	if final.State != fedshap.JobDone || final.Report == nil || final.FinishedAt == nil {
		return res, fmt.Errorf("job %s ended %s: %s", st.ID, final.State, final.Error)
	}
	res.finished, res.fresh, res.values = *final.FinishedAt, final.FreshEvals, final.Report.Values
	if final.FreshEvals != j.fresh {
		return res, fmt.Errorf("job %s reports %d fresh evaluations, want %d (warm=%v)", st.ID, final.FreshEvals, j.fresh, j.warm)
	}
	return res, nil
}

// serialValues recomputes a job's values on the serial library path: the
// problem the daemon builds, valued by shapley.Run on a fresh oracle.
func serialValues(ctx context.Context, req fedshap.JobRequest) (shapley.Values, error) {
	valserve.Normalize(&req)
	alg, err := valserve.NewValuer(req.Algorithm, req.Gamma, req.K)
	if err != nil {
		return nil, err
	}
	p, err := valserve.BuildProblem(req)
	if err != nil {
		return nil, err
	}
	return shapley.Run(shapley.NewContext(p.Oracle(), req.Seed+2).WithSpec(p.Spec).WithContext(ctx), alg)
}

// dirBytes sums the sizes of the regular files directly under dir.
func dirBytes(dir string) float64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	total := 0.0
	for _, e := range entries {
		if fi, err := e.Info(); err == nil && fi.Mode().IsRegular() {
			total += float64(fi.Size())
		}
	}
	return total
}

// serviceRound is the part the two service workloads share: a daemon, a
// schedule, the results, and the per-layer read-out.
type serviceRound struct {
	d        *daemon
	jobs     []job
	results  []jobResult
	cacheDir string
	journal  string
	replayS  float64
	// disk footprint when the timed window opened
	storeBytes0, journalBytes0 float64
	rejected                   atomic.Int64
}

func (s *serviceRound) op(ctx context.Context, i int, sp spanRef) error {
	res, err := runJob(ctx, s.d.client, s.jobs[i], sp)
	s.results[i] = res
	var se *fedshap.ServiceError
	if errors.As(err, &se) && se.StatusCode == http.StatusTooManyRequests {
		s.rejected.Add(1)
	}
	return err
}

func (s *serviceRound) verify(ctx context.Context, i int) error {
	want, err := serialValues(ctx, s.jobs[i].req)
	if err != nil {
		return err
	}
	return sameBits(s.results[i].values, want)
}

func (s *serviceRound) markDisk() {
	s.storeBytes0 = dirBytes(s.cacheDir)
	s.journalBytes0 = dirBytes(filepath.Dir(s.journal))
}

// stageSpans are the daemon's own job-trace spans the benchmark reads
// back; anytime_drive is what a confidence job runs in place of prefetch.
var stageSpans = []string{"queue", "build_problem", "warm_start", "prefetch", "anytime_drive", "aggregate"}

// layers reads every job's trace back from the daemon (after the timed
// window: the fetches cost the measured operations nothing), hangs the
// daemon's stage spans under the client's operation span, and reduces them
// to per-layer metrics.
func (s *serviceRound) layers(ctx context.Context, st *roundStats, out map[string]float64) error {
	byStage := make(map[string][]float64)
	var submit, notify, overhead, cold, warm []float64
	failed, fresh := 0, 0
	for i, res := range s.results {
		if res.id == "" || res.finished.IsZero() {
			failed++
			continue
		}
		tr, err := s.d.client.Trace(ctx, res.id)
		if err != nil {
			return err
		}
		stages := 0.0
		for _, sp := range tr.Spans {
			if sp.End == nil {
				continue
			}
			for _, name := range stageSpans {
				if sp.Name != name {
					continue
				}
				res.sp.add("valserve."+name, sp.Start, *sp.End)
				byStage[name] = append(byStage[name], sp.DurationSeconds)
				if name != "queue" {
					stages += sp.DurationSeconds
				}
			}
		}
		res.sp.add("valserve.notify", res.finished, res.seen)
		latency := st.opS[i]
		submit = append(submit, res.submit.Seconds())
		notify = append(notify, res.seen.Sub(res.finished).Seconds())
		overhead = append(overhead, latency-stages)
		if s.jobs[i].warm {
			warm = append(warm, latency)
		} else {
			cold = append(cold, latency)
		}
		fresh += res.fresh
	}
	ops := st.ops()
	out["valserve.submit_s.p50"] = median(submit)
	out["valserve.queue_wait_s.p50"] = median(byStage["queue"])
	out["valserve.build_problem_s.p50"] = median(byStage["build_problem"])
	out["valserve.warm_start_s.p50"] = median(byStage["warm_start"])
	out["valserve.prefetch_s.p50"] = median(append(byStage["prefetch"], byStage["anytime_drive"]...))
	out["valserve.aggregate_s.p50"] = median(byStage["aggregate"])
	out["valserve.notify_s.p50"] = median(notify)
	out["valserve.overhead_s.p50"] = median(overhead)
	out["valserve.cold_op_s.p50"] = median(cold)
	out["valserve.warm_op_s.p50"] = median(warm)
	out["valserve.replay_s"] = s.replayS
	out["valserve.journal_bytes_per_job"] = (dirBytes(filepath.Dir(s.journal)) - s.journalBytes0) / ops
	out["valserve.rejected"] = float64(s.rejected.Load())
	out["valserve.jobs_failed"] = float64(failed)
	out["utility.store_bytes_per_job"] = (dirBytes(s.cacheDir) - s.storeBytes0) / ops
	out["utility.fresh_evals"] = float64(fresh) / ops
	out["utility.prefetch_s"] = out["valserve.prefetch_s.p50"]
	return nil
}

var serviceMixed = &workload{
	name:    "service-mixed",
	why:     "tiny jobs through an in-process fedvald, 1 warm resubmit per 2 new fingerprints: HTTP, SSE, journal, store, fingerprinting and problem build dominate, reads beside writes",
	rate:    250,
	clients: 2,
	setup: func(ctx context.Context, env *roundEnv) (*round, error) {
		vocabulary, jobs, err := mixedSchedule(env.seed, env.index, env.ops)
		if err != nil {
			return nil, err
		}
		s := &serviceRound{
			jobs:     jobs,
			results:  make([]jobResult, len(jobs)),
			cacheDir: filepath.Join(env.dir, "cache"),
			journal:  filepath.Join(env.dir, "journal", "jobs.jsonl"),
		}
		if err := os.MkdirAll(filepath.Dir(s.journal), 0o755); err != nil {
			return nil, err
		}
		cfg := valserve.Config{Workers: 2, CacheDir: s.cacheDir, JournalPath: s.journal}

		// First daemon life: fill the vocabulary with exact jobs (every
		// coalition of each fingerprint lands in the store), then shut
		// down gracefully, which compacts journal and store.
		first, err := startDaemon(cfg)
		if err != nil {
			return nil, err
		}
		for _, req := range vocabulary {
			req.Algorithm = "exact"
			if _, err := runJob(ctx, first.client, job{req: req, fresh: 1 << req.N}, spanRef{}); err != nil {
				return nil, errors.Join(err, first.stop())
			}
		}
		if err := first.stop(); err != nil {
			return nil, err
		}
		// Second life: the restart an operator pays — journal replay.
		begin := time.Now()
		if s.d, err = startDaemon(cfg); err != nil {
			return nil, err
		}
		s.replayS = time.Since(begin).Seconds()
		s.markDisk()
		return &round{op: s.op, verify: s.verify, layers: s.layers, close: s.d.stop}, nil
	},
}

// fleet-mlp's job: the same kind of training as mlp-cold, evaluated by two
// remote workers instead of the local pool.
const (
	fleetWorkers = 2
	fleetWarmups = 45
)

func fleetRequest(seed int64) fedshap.JobRequest {
	return fedshap.JobRequest{Data: "femnist", Model: "mlp", N: 10, Scale: "small", Algorithm: "ipss", Gamma: 32, Seed: seed}
}

// fleet is the in-process worker fleet: a coordinator on a loopback
// listener and workers dialling it over TCP through counting connections.
type fleet struct {
	coord  *evalnet.Coordinator
	ln     *countingListener
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	evalS  []float64 // worker-side evaluation times
	buildS []float64 // worker-side problem builds, one per spec and worker
}

func startFleet(ctx context.Context) (*fleet, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	wctx, cancel := context.WithCancel(ctx)
	f := &fleet{coord: evalnet.NewCoordinator(), ln: &countingListener{Listener: ln}, cancel: cancel}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		_ = f.coord.Serve(f.ln) // returns when Close closes the listener
	}()
	build := valserve.WorkerEvaluatorWith(1)
	for k := 0; k < fleetWorkers; k++ {
		w := &evalnet.Worker{
			Name:     fmt.Sprintf("bench-worker-%d", k),
			Capacity: 1,
			// The builder is the benchmark's to supply, so timing it and
			// the evaluator it returns is measuring from outside.
			Build: func(spec evalnet.ProblemSpec) (evalnet.Evaluator, error) {
				begin := time.Now()
				ev, err := build(spec)
				f.note(&f.buildS, time.Since(begin))
				inner := ev.Eval
				ev.Eval = func(s combin.Coalition) float64 {
					begin := time.Now()
					u := inner(s)
					f.note(&f.evalS, time.Since(begin))
					return u
				}
				return ev, err
			},
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			_ = w.Dial(wctx, ln.Addr().String()) // ends when wctx is cancelled
		}()
	}
	for f.coord.WorkerCount() < fleetWorkers {
		select {
		case <-ctx.Done():
			f.stop()
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return f, nil
}

func (f *fleet) note(dst *[]float64, d time.Duration) {
	f.mu.Lock()
	*dst = append(*dst, d.Seconds())
	f.mu.Unlock()
}

// stop detaches the workers, closes the coordinator and waits for every
// goroutine the fleet started.
func (f *fleet) stop() {
	f.cancel()
	_ = f.coord.Close()
	f.wg.Wait()
}

// reset forgets what set-up's warm-up jobs measured.
func (f *fleet) reset() {
	f.mu.Lock()
	f.evalS, f.buildS = nil, nil
	f.mu.Unlock()
	f.ln.reset()
}

// completed is the number of evaluations the workers have answered.
func (f *fleet) completed() (n int64) {
	for _, w := range f.coord.Workers() {
		n += w.Completed
	}
	return n
}

var fleetMLP = &workload{
	name:    "fleet-mlp",
	why:     "mlp jobs evaluated by two remote workers over loopback TCP: training as in mlp-cold, so what differs is dispatch, gob framing, scheduling and per-spec problem rebuild",
	rate:    38,
	clients: 1,
	setup: func(ctx context.Context, env *roundEnv) (*round, error) {
		f, err := startFleet(ctx)
		if err != nil {
			return nil, err
		}
		s := &serviceRound{
			results:  make([]jobResult, env.ops),
			cacheDir: filepath.Join(env.dir, "cache"),
			journal:  filepath.Join(env.dir, "journal", "jobs.jsonl"),
		}
		if err := os.MkdirAll(filepath.Dir(s.journal), 0o755); err != nil {
			f.stop()
			return nil, err
		}
		newJob := func(slot int) (job, error) {
			req := fleetRequest(env.opSeed(slot))
			fresh, err := planFresh(req)
			return job{req: req, fresh: fresh}, err
		}
		for i := 0; i < env.ops; i++ {
			j, err := newJob(i)
			if err != nil {
				f.stop()
				return nil, err
			}
			s.jobs = append(s.jobs, j)
		}
		s.d, err = startDaemon(valserve.Config{Workers: 2, CacheDir: s.cacheDir, JournalPath: s.journal, Coordinator: f.coord})
		if err != nil {
			f.stop()
			return nil, err
		}
		stop := func() error {
			err := s.d.stop()
			f.stop()
			return err
		}
		for k := 0; k < fleetWarmups; k++ {
			j, err := newJob(env.ops + k)
			if err == nil {
				_, err = runJob(ctx, s.d.client, j, spanRef{})
			}
			if err != nil {
				return nil, errors.Join(err, stop())
			}
		}
		f.reset()
		remote0 := f.completed()
		s.markDisk()
		return &round{
			op: s.op, verify: s.verify, close: stop,
			layers: func(ctx context.Context, st *roundStats, out map[string]float64) error {
				if err := s.layers(ctx, st, out); err != nil {
					return err
				}
				f.layers(st, remote0, out)
				return nil
			},
		}, nil
	},
}

// layers reduces what the fleet's seams saw during the timed window.
func (f *fleet) layers(st *roundStats, remote0 int64, out map[string]float64) {
	remote := f.completed() - remote0
	fresh := out["utility.fresh_evals"] * st.ops()
	stats := f.coord.Stats()
	rtt, bytes := f.ln.totals()
	f.mu.Lock()
	evalS, buildS := f.evalS, f.buildS
	f.mu.Unlock()

	out["evalnet.remote_evals"] = float64(remote)
	out["evalnet.local_evals"] = fresh - float64(remote)
	if fresh > 0 {
		out["evalnet.remote_share"] = float64(remote) / fresh
	}
	out["evalnet.task_rtt_s.p50"] = median(rtt)
	out["evalnet.worker_eval_s.p50"] = median(evalS)
	out["evalnet.wire_overhead_s.p50"] = median(rtt) - median(evalS)
	out["evalnet.spec_build_s"] = median(buildS)
	out["evalnet.worker_busy_share"] = sum(evalS) / (fleetWorkers * st.wallS)
	if remote > 0 {
		out["evalnet.bytes_per_task"] = bytes / float64(remote)
	}
	out["evalnet.redispatched"] = float64(stats.Redispatches + stats.Requeues + stats.DeadlineRequeues)
}

// countingListener hands the coordinator connections that count bytes and
// time task round trips.
type countingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*countingConn
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: c}
	l.mu.Lock()
	l.conns = append(l.conns, cc)
	l.mu.Unlock()
	return cc, nil
}

func (l *countingListener) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.mu.Lock()
		c.bytes, c.rtt = 0, nil
		c.mu.Unlock()
	}
}

func (l *countingListener) totals() (rtt []float64, bytes float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.mu.Lock()
		rtt = append(rtt, c.rtt...)
		bytes += float64(c.bytes)
		c.mu.Unlock()
	}
	return rtt, bytes
}

// countingConn is the coordinator's end of one worker link. Each worker
// has capacity 1, so at most one task is in flight per link and a round
// trip is the time from the coordinator's last write (the task) to the
// next bytes it reads (the result). Writes that get no answer — a spec, a
// cancel — are simply superseded by the next write.
type countingConn struct {
	net.Conn
	mu        sync.Mutex
	bytes     int64
	lastWrite time.Time
	awaiting  bool
	rtt       []float64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	c.bytes += int64(n)
	c.lastWrite, c.awaiting = time.Now(), true
	c.mu.Unlock()
	return n, err
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.bytes += int64(n)
	if n > 0 && c.awaiting {
		c.rtt = append(c.rtt, time.Since(c.lastWrite).Seconds())
		c.awaiting = false
	}
	c.mu.Unlock()
	return n, err
}
