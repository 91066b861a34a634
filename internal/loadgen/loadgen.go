// Package loadgen replays synthetic multi-tenant traffic against a
// running fedvald daemon and measures what the microbenchmarks cannot:
// throughput, queue wait and job latency percentiles under thousands of
// concurrent submissions spread over many problem fingerprints, with SSE
// watcher pools and warm resubmits exercising the event hub and the
// persistent utility store. Its chaos controller (see chaos.go) injects
// worker kills, daemon SIGKILLs and coordinator partitions mid-load and
// then asserts the journal/requeue invariants the service is built on.
//
// The package is the engine behind cmd/fedvalload; tests drive it against
// in-process daemons with synthetic games.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"fedshap"
	"fedshap/internal/obs"
)

// Mix shapes the synthetic traffic: the problem vocabulary requests are
// drawn from. Every generated request is valid for a stock fedvald.
type Mix struct {
	// Data/Scale/N fix the dataset family, substrate scale and federation
	// size (defaults: synthetic / tiny / 4).
	Data  string
	Scale string
	N     int
	// Models are cycled across fingerprints (default [logreg]). The model
	// participates in the problem fingerprint, so mixing models widens
	// the fingerprint space.
	Models []string
	// Gammas are sampled per submission (default [6, 12]). γ is a sampler
	// property, not a problem property: two jobs with different budgets
	// share one fingerprint and warm each other through the store.
	Gammas []int
	// Algorithm names the valuer (default ipss).
	Algorithm string
}

// Config tunes a load run.
type Config struct {
	// Client talks to the target daemon.
	Client *fedshap.ServiceClient
	// Jobs is the total number of submissions to replay (default 50).
	Jobs int
	// Concurrency is the number of concurrent submitters (default 4).
	Concurrency int
	// BatchSize groups submissions into POST /v1/jobs:batch calls;
	// <= 1 submits one job per request (default 1).
	BatchSize int
	// Fingerprints is the number of distinct problem fingerprints the
	// traffic spreads across (default 4): fingerprint j varies the seed
	// (and cycles Mix.Models), so each is an independent cached problem.
	Fingerprints int
	// WarmFraction is the probability a submission repeats an earlier
	// request verbatim instead of drawing a fresh one — the resubmit
	// traffic that exercises the persistent store (default 0.25).
	WarmFraction float64
	// Watchers sizes the SSE watcher pool (default 2; 0 disables). Each
	// watcher holds a live event stream on one submitted job until it
	// terminates, falling back to polling if the stream breaks for good.
	Watchers int
	// Seed drives traffic generation; runs with equal seeds submit
	// identical request sequences (default 1).
	Seed int64
	// Timeout bounds the whole run (default 10 minutes).
	Timeout time.Duration
	// ScrapeInterval is the /metrics sampling cadence (default 500ms).
	ScrapeInterval time.Duration
	// Mix shapes the request vocabulary.
	Mix Mix
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c *Config) defaults() {
	if c.Jobs <= 0 {
		c.Jobs = 50
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 4
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 1
	}
	if c.Fingerprints <= 0 {
		c.Fingerprints = 4
	}
	if c.WarmFraction < 0 {
		c.WarmFraction = 0
	}
	if c.Watchers < 0 {
		c.Watchers = 0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Minute
	}
	if c.ScrapeInterval <= 0 {
		c.ScrapeInterval = 500 * time.Millisecond
	}
	if c.Mix.Data == "" {
		c.Mix.Data = "synthetic"
	}
	if c.Mix.Scale == "" {
		c.Mix.Scale = "tiny"
	}
	if c.Mix.N <= 0 {
		c.Mix.N = 4
	}
	if len(c.Mix.Models) == 0 {
		c.Mix.Models = []string{"logreg"}
	}
	if len(c.Mix.Gammas) == 0 {
		c.Mix.Gammas = []int{6, 12}
	}
	if c.Mix.Algorithm == "" {
		c.Mix.Algorithm = "ipss"
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Runner executes one load run. Create with NewRunner; Run may be called
// once.
type Runner struct {
	cfg Config

	requests []fedshap.JobRequest
	warm     int // how many of requests are verbatim resubmits

	mu        sync.Mutex
	submitted []*fedshap.JobStatus
	submitLat []time.Duration
	finals    map[string]*fedshap.JobStatus

	terminalCount atomic.Int64
	watchEvents   atomic.Int64
	watchResumes  atomic.Int64
	watchJobs     atomic.Int64
	rejected429s  atomic.Int64

	scraper *metricsScraper
}

// NewRunner validates the config and pre-generates the deterministic
// request sequence.
func NewRunner(cfg Config) (*Runner, error) {
	cfg.defaults()
	if cfg.Client == nil {
		return nil, errors.New("loadgen: Config.Client is required")
	}
	// The harness measures raw server behaviour: its own submit loop owns
	// backoff and counts every 429, so the client's transparent retry
	// policy would hide exactly the rejections a load report exists to
	// surface.
	cfg.Client.Retry = nil
	r := &Runner{cfg: cfg, finals: make(map[string]*fedshap.JobStatus)}
	r.scraper = newMetricsScraper(cfg.Client, cfg.ScrapeInterval)
	r.requests, r.warm = generate(cfg)
	return r, nil
}

// Rejected429s reports how many submissions were shed with HTTP 429
// before eventually being accepted.
func (r *Runner) Rejected429s() int64 { return r.rejected429s.Load() }

// Requests exposes the generated submission sequence (for tests and for
// the chaos controller's replay/control passes).
func (r *Runner) Requests() []fedshap.JobRequest { return r.requests }

// UniqueRequests returns the distinct requests of the sequence, in first-
// appearance order — the set the chaos invariants replay and control-run.
func (r *Runner) UniqueRequests() []fedshap.JobRequest {
	seen := make(map[string]bool)
	var out []fedshap.JobRequest
	for _, req := range r.requests {
		k := requestKey(req)
		if !seen[k] {
			seen[k] = true
			out = append(out, req)
		}
	}
	return out
}

// TerminalCount reports how many tracked jobs have reached a terminal
// state so far — the chaos controller paces its faults on it.
func (r *Runner) TerminalCount() int { return int(r.terminalCount.Load()) }

// generate builds the deterministic request sequence: Fingerprints
// problem variants (seed + model rotation), γ drawn per submission, and a
// WarmFraction of verbatim resubmits of earlier requests.
func generate(cfg Config) (reqs []fedshap.JobRequest, warm int) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	variants := make([]fedshap.JobRequest, cfg.Fingerprints)
	for j := range variants {
		variants[j] = fedshap.JobRequest{
			Data:      cfg.Mix.Data,
			Scale:     cfg.Mix.Scale,
			N:         cfg.Mix.N,
			Model:     cfg.Mix.Models[j%len(cfg.Mix.Models)],
			Algorithm: cfg.Mix.Algorithm,
			Seed:      cfg.Seed + int64(j),
		}
	}
	reqs = make([]fedshap.JobRequest, 0, cfg.Jobs)
	for i := 0; i < cfg.Jobs; i++ {
		if len(reqs) > 0 && rng.Float64() < cfg.WarmFraction {
			reqs = append(reqs, reqs[rng.Intn(len(reqs))])
			warm++
			continue
		}
		req := variants[rng.Intn(len(variants))]
		req.Gamma = cfg.Mix.Gammas[rng.Intn(len(cfg.Mix.Gammas))]
		reqs = append(reqs, req)
	}
	return reqs, warm
}

// requestKey canonicalises a request for dedup (the wire form is already
// normalized enough for the requests generate produces).
func requestKey(req fedshap.JobRequest) string {
	return fmt.Sprintf("%s|%s|%s|%g|%s|%d|%d|%d|%d|%s",
		req.Data, req.Setup, req.Model, req.Noise, req.Algorithm, req.N, req.Gamma, req.K, req.Seed, req.Scale)
}

// Run replays the traffic and blocks until every accepted job reaches a
// terminal state (or the run times out). It is tolerant of a daemon that
// goes away mid-run — submissions and polls retry with backoff — which is
// what lets the chaos controller SIGKILL and relaunch the daemon under
// load.
func (r *Runner) Run(ctx context.Context) (*Report, error) {
	ctx, cancel := context.WithTimeout(ctx, r.cfg.Timeout)
	defer cancel()

	// The scraper outlives the run's deadline, so the final fold over
	// /metrics still happens after a timeout.
	scrapeCtx, stopScraper := context.WithCancel(context.WithoutCancel(ctx))
	defer stopScraper()
	go r.scraper.run(scrapeCtx)

	start := time.Now()
	watchQueue := make(chan string, r.cfg.Jobs)
	var watchers sync.WaitGroup
	for w := 0; w < r.cfg.Watchers; w++ {
		watchers.Add(1)
		go func() {
			defer watchers.Done()
			for id := range watchQueue {
				r.watchOne(ctx, id)
			}
		}()
	}

	if err := r.submitAll(ctx, watchQueue); err != nil {
		close(watchQueue)
		watchers.Wait()
		return nil, err
	}
	err := r.awaitTerminal(ctx)
	close(watchQueue)
	watchers.Wait()
	wall := time.Since(start)
	stopScraper()

	rep := r.assemble(wall)
	return rep, err
}

// submitAll drives the submitter pool over the request sequence.
func (r *Runner) submitAll(ctx context.Context, watchQueue chan<- string) error {
	batches := make(chan []fedshap.JobRequest)
	var wg sync.WaitGroup
	errc := make(chan error, r.cfg.Concurrency)
	for w := 0; w < r.cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for batch := range batches {
				if err := r.submitBatch(ctx, batch, watchQueue); err != nil {
					select {
					case errc <- err:
					default:
					}
					return
				}
			}
		}()
	}
	for i := 0; i < len(r.requests); i += r.cfg.BatchSize {
		end := i + r.cfg.BatchSize
		if end > len(r.requests) {
			end = len(r.requests)
		}
		select {
		case batches <- r.requests[i:end]:
		case <-ctx.Done():
			close(batches)
			wg.Wait()
			return ctx.Err()
		}
	}
	close(batches)
	wg.Wait()
	select {
	case err := <-errc:
		return err
	default:
		return nil
	}
}

// submitBatch submits one batch (or single job), retrying queue-full
// rejections and connection errors — a daemon mid-restart refuses
// connections for a moment and a saturated queue sheds load; both are
// expected under stress, so the generator backs off and persists. A 429
// carrying a Retry-After hint overrides the computed backoff: the server
// knows its own drain rate better than the client's doubling schedule.
func (r *Runner) submitBatch(ctx context.Context, batch []fedshap.JobRequest, watchQueue chan<- string) error {
	pending := batch
	backoff := 25 * time.Millisecond
	for len(pending) > 0 {
		reqStart := time.Now()
		accepted, rejected, retryAfter, err := r.trySubmit(ctx, pending)
		lat := time.Since(reqStart)
		if err == nil {
			r.record(accepted, lat, watchQueue)
			if len(rejected) == 0 {
				return nil
			}
			pending = rejected
		} else if ctxErr := ctx.Err(); ctxErr != nil {
			return ctxErr
		} else {
			var se *fedshap.ServiceError
			if errors.As(err, &se) && se.StatusCode < 500 && se.StatusCode != 429 {
				return fmt.Errorf("loadgen: submission rejected: %w", err)
			}
			// Connection refused / 5xx: the daemon is restarting or
			// saturated. Fall through to back off and retry.
		}
		wait := backoff
		if retryAfter > wait {
			wait = retryAfter
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(wait):
		}
		if backoff < 400*time.Millisecond {
			backoff *= 2
		}
	}
	return nil
}

// trySubmit performs one submission round trip, splitting per-item
// outcomes: accepted statuses, queue-full rejections to retry (with the
// server's Retry-After hint when it sent one), or a transport/whole-batch
// error.
func (r *Runner) trySubmit(ctx context.Context, pending []fedshap.JobRequest) (accepted []*fedshap.JobStatus, rejected []fedshap.JobRequest, retryAfter time.Duration, err error) {
	if len(pending) == 1 && r.cfg.BatchSize <= 1 {
		st, err := r.cfg.Client.Submit(ctx, pending[0])
		if err != nil {
			var se *fedshap.ServiceError
			if errors.As(err, &se) {
				switch se.StatusCode {
				case 429: // queue saturated: admission control shed us
					r.rejected429s.Add(1)
					return nil, pending, se.RetryAfter, nil
				case 503: // older daemons shed queue-full as 503
					return nil, pending, 0, nil
				}
			}
			return nil, nil, 0, err
		}
		return []*fedshap.JobStatus{st}, nil, 0, nil
	}
	resp, err := r.cfg.Client.SubmitBatch(ctx, pending)
	if err != nil {
		var se *fedshap.ServiceError
		if errors.As(err, &se) && se.StatusCode == 429 {
			r.rejected429s.Add(int64(len(pending)))
			return nil, pending, se.RetryAfter, nil
		}
		return nil, nil, 0, err
	}
	for i, item := range resp.Jobs {
		if item.Status != nil {
			accepted = append(accepted, item.Status)
		} else {
			// Every generated request is valid; a rejection here is the
			// queue shedding load. Retry it.
			rejected = append(rejected, pending[i])
		}
	}
	return accepted, rejected, 0, nil
}

// record registers accepted submissions and feeds the watcher pool.
func (r *Runner) record(accepted []*fedshap.JobStatus, lat time.Duration, watchQueue chan<- string) {
	r.mu.Lock()
	for _, st := range accepted {
		r.submitted = append(r.submitted, st)
		r.submitLat = append(r.submitLat, lat)
	}
	r.mu.Unlock()
	for _, st := range accepted {
		select {
		case watchQueue <- st.ID:
		default: // watcher pool saturated: this job is polled, not watched
		}
	}
}

// watchOne holds an SSE stream on a job until it terminates; if the
// stream breaks permanently (daemon SIGKILL), it falls back to tolerant
// polling so the watcher still observes the terminal state.
func (r *Runner) watchOne(ctx context.Context, id string) {
	st, err := r.cfg.Client.WatchJob(ctx, id, func(event string, st *fedshap.JobStatus) {
		r.watchEvents.Add(1)
	})
	if err != nil && ctx.Err() == nil {
		r.watchResumes.Add(1)
		st = r.pollTerminal(ctx, id)
	}
	if st != nil && st.State.Terminal() {
		r.watchJobs.Add(1)
	}
}

// pollTerminal polls one job until terminal, riding out daemon downtime.
func (r *Runner) pollTerminal(ctx context.Context, id string) *fedshap.JobStatus {
	for {
		st, err := r.cfg.Client.Job(ctx, id)
		if err == nil && st.State.Terminal() {
			return st
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// awaitTerminal polls the job list until every tracked submission is
// terminal, recording final statuses. List polling (rather than per-job
// gets) keeps the poll cost flat in the number of jobs; transport errors
// are daemon restarts and are ridden out.
func (r *Runner) awaitTerminal(ctx context.Context) error {
	for {
		r.mu.Lock()
		ids := make([]string, 0, len(r.submitted))
		for _, st := range r.submitted {
			if _, done := r.finals[st.ID]; !done {
				ids = append(ids, st.ID)
			}
		}
		total := len(r.submitted)
		r.mu.Unlock()
		if len(ids) == 0 && total > 0 {
			return nil
		}
		jobs, err := r.cfg.Client.Jobs(ctx)
		if err == nil {
			byID := make(map[string]*fedshap.JobStatus, len(jobs))
			for _, st := range jobs {
				byID[st.ID] = st
			}
			r.mu.Lock()
			for _, id := range ids {
				if st, ok := byID[id]; ok && st.State.Terminal() {
					r.finals[id] = st
					r.terminalCount.Add(1)
				}
			}
			remaining := total - len(r.finals)
			r.mu.Unlock()
			if remaining == 0 {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("loadgen: %w before all jobs terminal", ctx.Err())
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// assemble builds the report from the collected samples.
func (r *Runner) assemble(wall time.Duration) *Report {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := &Report{
		Jobs:          len(r.requests),
		Submitted:     len(r.submitted),
		Fingerprints:  r.cfg.Fingerprints,
		WarmResubmits: r.warm,
		WallSeconds:   wall.Seconds(),
		SubmitLatency: percentilesOf(r.submitLat),
		Watchers: WatcherStats{
			Jobs:    int(r.watchJobs.Load()),
			Events:  r.watchEvents.Load(),
			Resumes: r.watchResumes.Load(),
		},
	}
	rep.Rejected429s = r.rejected429s.Load()
	var queueWait, jobLat []time.Duration
	for _, st := range r.finals {
		switch st.State {
		case fedshap.JobDone:
			rep.Done++
		case fedshap.JobFailed:
			rep.Failed++
		case fedshap.JobCancelled:
			rep.Cancelled++
		case fedshap.JobTimedOut:
			rep.TimedOut++
		}
		rep.FreshEvals += int64(st.FreshEvals)
		rep.WarmedCoalitions += int64(st.WarmedCoalitions)
		if st.StartedAt != nil {
			queueWait = append(queueWait, st.StartedAt.Sub(st.SubmittedAt))
		}
		if st.FinishedAt != nil {
			jobLat = append(jobLat, st.FinishedAt.Sub(st.SubmittedAt))
		}
	}
	rep.QueueWait = percentilesOf(queueWait)
	rep.JobLatency = percentilesOf(jobLat)
	if wall > 0 {
		rep.Throughput = float64(rep.Done+rep.Failed+rep.Cancelled) / wall.Seconds()
	}
	if r.scraper != nil {
		rep.Metrics = r.scraper.last()
	}
	return rep
}

// metricsScraper samples GET /metrics on an interval, accumulating
// counters that reset when the daemon process is replaced — a SIGKILLed
// and relaunched daemon starts its fleet counters at zero, so the scraper
// detects the reset (counter went backwards) and carries the previous
// life's total forward. This is what lets a chaos run assert that
// fedvald_fleet_redispatch_total accounted for every induced death even
// though the daemon died in the middle.
type metricsScraper struct {
	client   *fedshap.ServiceClient
	interval time.Duration

	// turn serialises whole scrapes: a reading folded after a newer one
	// would look like a counter reset to the carry.
	turn    sync.Mutex
	mu      sync.Mutex
	series  map[string]float64 // the last successful scrape
	carried map[string]*carry  // by series key
}

// carry is one counter followed across daemon lives: the sum of the
// completed lives and the current life's latest value.
type carry struct{ base, seen float64 }

// The fleet counters the scraper carries across daemon lives.
var (
	deathRequeuesKey    = obs.SeriesKey("fedvald_fleet_redispatch_total", "reason", "worker-death")
	deadlineRequeuesKey = obs.SeriesKey("fedvald_fleet_redispatch_total", "reason", "deadline")
	quarantineRejectKey = "fedvald_fleet_quarantine_rejections_total"
)

func newMetricsScraper(client *fedshap.ServiceClient, interval time.Duration) *metricsScraper {
	carried := make(map[string]*carry, 3)
	for _, key := range []string{deathRequeuesKey, deadlineRequeuesKey, quarantineRejectKey} {
		carried[key] = new(carry)
	}
	return &metricsScraper{client: client, interval: interval, carried: carried}
}

func (s *metricsScraper) run(ctx context.Context) {
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		s.Scrape(ctx)
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// Scrape samples /metrics once, immediately, and returns the series (the
// last successful scrape's if this one fails). The chaos controller calls
// it right before a kill so the dying life's counters are folded in.
func (s *metricsScraper) Scrape(ctx context.Context) map[string]float64 {
	s.turn.Lock()
	defer s.turn.Unlock()
	sctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	m, err := s.client.Metrics(sctx)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		return s.series
	}
	s.series = m
	for key, c := range s.carried {
		v, ok := m[key]
		if !ok {
			continue
		}
		if v < c.seen { // counter reset: new daemon life
			c.base += c.seen
		}
		c.seen = v
	}
	return m
}

// last returns the most recent successful scrape.
func (s *metricsScraper) last() map[string]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.series
}

// total returns a carried counter's sum across every daemon life
// observed.
func (s *metricsScraper) total(key string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.carried[key]
	return int64(c.base + c.seen)
}
