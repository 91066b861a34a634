package fedshap

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"fedshap/internal/resilience"
)

// Valuation job service wire API: the JSON types exchanged between the
// fedvald daemon (internal/valserve) and its clients, plus a small HTTP
// client. They live in the root package so external programs can submit
// jobs without importing internals.

// JobState is the lifecycle state of a valuation job.
type JobState string

// The job lifecycle: Queued → Running → one of the terminal states.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
	// JobTimedOut is reached by a running job that exceeded its
	// JobRequest.DeadlineSeconds budget. Like the other terminal states
	// it survives a daemon restart.
	JobTimedOut JobState = "timed_out"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled || s == JobTimedOut
}

// JobRequest describes a valuation job, mirroring the fedval CLI flags:
// pick a dataset family, a model, a federation size and an algorithm.
type JobRequest struct {
	// Data is the dataset family: femnist | adult | synthetic.
	Data string `json:"data"`
	// Setup selects the synthetic partition setup (synthetic only).
	Setup string `json:"setup,omitempty"`
	// Noise is the noise level for the noisy synthetic setups.
	Noise float64 `json:"noise,omitempty"`
	// Model is the FL model family: mlp | cnn | xgb | logreg | deepmlp.
	Model string `json:"model"`
	// N is the federation size (2..127).
	N int `json:"n"`
	// Algorithm names the valuation algorithm (ipss, exact, tmc, ...).
	Algorithm string `json:"algorithm"`
	// Gamma is the sampling budget γ; 0 selects the paper's policy.
	Gamma int `json:"gamma,omitempty"`
	// K is the K-Greedy probe depth.
	K int `json:"k,omitempty"`
	// Seed drives dataset generation, training and sampling.
	Seed int64 `json:"seed,omitempty"`
	// Scale is the substrate scale: tiny | small.
	Scale string `json:"scale,omitempty"`
	// Workers bounds the job's concurrent coalition evaluations
	// (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// DeadlineSeconds, when > 0, bounds the job's run time: a job still
	// executing this many seconds after it leaves the queue is stopped
	// and reaches the terminal timed_out state. Queue wait does not
	// count, and the deadline is not part of the problem fingerprint —
	// re-submitting with a different deadline reuses cached utilities.
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
	// Confidence, when in (0, 1), turns on anytime valuation: the job
	// tracks running per-client estimates with simultaneous confidence
	// intervals at this level and streams interim "values" events over
	// GET /v1/jobs/{id}/events.
	Confidence float64 `json:"confidence,omitempty"`
	// RankStop, with Confidence set, stops sampling as soon as every
	// pairwise client ranking is resolved at the requested confidence.
	// Unspent budget is reported in Report.BudgetUnspent. Only algorithms
	// exposing their complete evaluation plan support it.
	RankStop bool `json:"rank_stop,omitempty"`
	// Versions are per-client dataset version counters (len == N when
	// set). Version 0 is the base dataset; bumping a client's version
	// perturbs its partition deterministically. Delta revaluation (POST
	// /v1/jobs/{id}/revalue) bumps versions for the changed clients and
	// re-evaluates only the coalitions containing them.
	Versions []int `json:"versions,omitempty"`
}

// RevalueRequest is the body of POST /v1/jobs/{id}/revalue: the set of
// clients whose data changed since the referenced job ran. The daemon
// submits a follow-up job whose version vector bumps exactly these clients,
// warm-starting every coalition untouched by the change from the
// fingerprint store.
type RevalueRequest struct {
	// Changed lists the 0-based client indices with new data.
	Changed []int `json:"changed"`
}

// InterimValues is one anytime snapshot of a running job, streamed as a
// "values" event on GET /v1/jobs/{id}/events: current per-client estimates
// with simultaneous confidence intervals and progress through the
// evaluation plan.
type InterimValues struct {
	// JobID is the job the snapshot belongs to.
	JobID string `json:"job_id"`
	// Names are the client display names, aligned with Values.
	Names []string `json:"names,omitempty"`
	// Values are the current per-client estimates.
	Values []float64 `json:"values"`
	// CILow/CIHigh bound each client's value: all n intervals hold
	// simultaneously at the requested confidence, at every snapshot of
	// the run (anytime validity).
	CILow  []float64 `json:"ci_low"`
	CIHigh []float64 `json:"ci_high"`
	// Confidence echoes the requested simultaneous confidence level.
	Confidence float64 `json:"confidence"`
	// Observations counts marginal contributions folded per client.
	Observations []int `json:"observations,omitempty"`
	// SeenCoalitions / PlannedCoalitions measure progress through the
	// evaluation plan (PlannedCoalitions is 0 when the algorithm exposes
	// no complete plan).
	SeenCoalitions    int `json:"seen_coalitions"`
	PlannedCoalitions int `json:"planned_coalitions,omitempty"`
	// Resolved reports whether every pairwise client ranking is decided
	// at the requested confidence.
	Resolved bool `json:"resolved"`
	// At stamps the snapshot.
	At time.Time `json:"at"`
}

// BatchRequest is the body of POST /v1/jobs:batch: many job submissions
// in one round trip, the shape a load generator or a tenant onboarding
// burst wants. Jobs are admitted independently — one invalid or
// queue-rejected job never blocks its neighbours.
type BatchRequest struct {
	// Jobs are the submissions, in order. The daemon caps a batch at
	// MaxBatchJobs entries.
	Jobs []JobRequest `json:"jobs"`
}

// MaxBatchJobs bounds one BatchRequest; larger batches are rejected whole
// with HTTP 413 (split them client-side).
const MaxBatchJobs = 256

// BatchItem is the outcome of one submission inside a batch: exactly one
// of Status (accepted) or Error (rejected) is set.
type BatchItem struct {
	Status *JobStatus `json:"status,omitempty"`
	Error  string     `json:"error,omitempty"`
}

// BatchResponse answers POST /v1/jobs:batch. Items align 1:1 with the
// request's Jobs slice.
type BatchResponse struct {
	// Accepted counts items carrying a Status.
	Accepted int `json:"accepted"`
	// Jobs holds each submission's outcome, in request order.
	Jobs []BatchItem `json:"jobs"`
}

// JobStatus is the service's view of one job.
type JobStatus struct {
	// ID is the server-assigned job identifier.
	ID string `json:"id"`
	// State is the current lifecycle state.
	State JobState `json:"state"`
	// Request echoes the submitted job.
	Request JobRequest `json:"request"`
	// Problem names the job's valuation problem: from the request when
	// the job starts, or, under a custom problem builder, once the daemon
	// builds it (never, for a fully warm or fleet-served job).
	Problem string `json:"problem,omitempty"`
	// Fingerprint identifies the problem in the persistent utility cache.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Budget is the resolved sampling budget γ.
	Budget int `json:"budget"`
	// FreshEvals counts fresh coalition evaluations so far — progress
	// toward Budget. It only ever increases while the job runs.
	FreshEvals int `json:"fresh_evals"`
	// WarmedCoalitions counts utilities preloaded from the persistent
	// cache; a fully warm job finishes with FreshEvals == 0.
	WarmedCoalitions int `json:"warmed_coalitions"`
	// RemoteWorkers is the size of the evaluation worker fleet the job
	// started with; 0 means the job evaluates in-process.
	RemoteWorkers int `json:"remote_workers,omitempty"`
	// RevalueOf is the job ID this job revalues (set by POST
	// /v1/jobs/{id}/revalue); empty for directly submitted jobs.
	RevalueOf string `json:"revalue_of,omitempty"`
	// Error describes a failure (state failed or cancelled).
	Error string `json:"error,omitempty"`
	// SubmittedAt/StartedAt/FinishedAt bound the job's lifecycle.
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	// Report is the valuation outcome (state done only).
	Report *Report `json:"report,omitempty"`
}

// WorkerInfo describes one remote evaluation worker attached to the
// daemon's coordinator (see internal/evalnet): jobs fan their coalition
// evaluations out across these machines.
type WorkerInfo struct {
	// ID is the coordinator-assigned worker identifier.
	ID int `json:"id"`
	// Name is the worker's self-reported name (fedvalworker -name).
	Name string `json:"name"`
	// Addr is the remote address the worker connected from.
	Addr string `json:"addr,omitempty"`
	// Capacity is the worker's concurrent-evaluation limit.
	Capacity int `json:"capacity"`
	// InFlight is the number of evaluations currently assigned.
	InFlight int `json:"in_flight"`
	// Completed counts evaluations this worker has answered.
	Completed int64 `json:"completed"`
	// EWMAMillis is the worker's exponentially weighted moving average
	// evaluation latency in milliseconds; 0 until its first result. The
	// coordinator schedules by expected completion time derived from it.
	EWMAMillis float64 `json:"ewma_ms"`
	// Redispatched counts speculative straggler-relief copies this worker
	// received.
	Redispatched int64 `json:"redispatched"`
	// Flaps counts this worker name's recent unexpected disconnects
	// inside the coordinator's flap window. Reaching the flap threshold
	// benches the name (see FleetMetrics.Quarantined).
	Flaps int `json:"flaps,omitempty"`
}

// FleetMetrics is the scheduler section of GET /metrics: the remote
// evaluation fleet's per-worker state plus the coordinator's speculation
// counters.
type FleetMetrics struct {
	// Workers lists the attached workers, as GET /v1/workers does.
	Workers []WorkerInfo `json:"workers"`
	// TotalCapacity is the fleet's aggregate in-flight limit.
	TotalCapacity int `json:"total_capacity"`
	// PendingTasks is the depth of the coordinator's unassigned-task queue.
	PendingTasks int `json:"pending_tasks"`
	// Redispatches counts speculative task copies dispatched to relieve
	// stragglers; RedispatchWins counts the copies that answered first.
	Redispatches   int64 `json:"redispatches"`
	RedispatchWins int64 `json:"redispatch_wins"`
	// Requeues counts tasks re-dispatched because their worker died
	// mid-evaluation (distinct from speculative straggler relief).
	Requeues int64 `json:"requeues"`
	// DeadlineRequeues counts tasks requeued because a worker held them
	// past the per-task deadline (fedvald -task-deadline) — hung, not
	// merely slow.
	DeadlineRequeues int64 `json:"deadline_requeues,omitempty"`
	// Quarantined lists worker names currently benched for flapping;
	// QuarantineRejections counts attach attempts refused while benched.
	Quarantined          []string `json:"quarantined,omitempty"`
	QuarantineRejections int64    `json:"quarantine_rejections,omitempty"`
	// RefusedFrames counts worker links the coordinator ended because a
	// frame was over its size cap or did not decode as a result.
	RefusedFrames int64 `json:"refused_frames,omitempty"`
}

// TraceSpan is one step of a job's trace timeline (GET
// /v1/jobs/{id}/trace): a named interval with its source — "daemon" for
// coordinator-side phases, a worker's name for fleet dispatch spans — and
// free-form attributes. An instant event has DurationSeconds 0 and
// End == Start; a span still open when the trace was fetched has a nil
// End.
type TraceSpan struct {
	// Name is the lifecycle step: submit, queue, warm_start, prefetch,
	// anytime_drive, aggregate, report, dispatch, redispatch — and
	// build_problem, present only when the daemon trains a coalition
	// itself or a reconstruction baseline needs the data (for a cold
	// local job it starts inside prefetch or anytime_drive).
	Name string `json:"name"`
	// Source attributes the span: "daemon", or a worker name.
	Source string `json:"source,omitempty"`
	// Start and End bound the span (End nil while it is open).
	Start time.Time  `json:"start"`
	End   *time.Time `json:"end,omitempty"`
	// DurationSeconds is End - Start (0 for events and open spans).
	DurationSeconds float64 `json:"duration_seconds"`
	// Attrs carries step-specific detail: task counts by outcome on
	// dispatch spans, the reason (worker-death | straggler) on redispatch
	// events, warmed/planned counts on the daemon phases.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// JobTrace is the assembled span timeline of one job — the answer to
// "where did this job spend its time" across the daemon → coordinator →
// worker path. Traces live in daemon memory only: they cover jobs run by
// the current process and do not survive a restart (unlike job statuses
// and reports, which replay from the journal).
type JobTrace struct {
	// JobID is the job the spans belong to.
	JobID string `json:"job_id"`
	// State is the job's lifecycle state when the trace was fetched.
	State JobState `json:"state"`
	// Spans is the timeline ordered by start time. Worker-side evaluation
	// time is merged into per-worker dispatch spans (attr eval_seconds).
	Spans []TraceSpan `json:"spans"`
}

// JobMetrics is the job-table section of GET /metrics.
type JobMetrics struct {
	// Queued/Running/Done/Failed/Cancelled/TimedOut count jobs per
	// lifecycle state.
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
	TimedOut  int `json:"timed_out"`
	// QueueDepth is the number of jobs waiting for a pool worker;
	// QueueCapacity is the admission limit (fedvald -queue).
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
}

// CacheMetrics is the utility-cache section of GET /metrics. The hit
// ratio is warmed / (warmed + fresh) across the jobs the daemon currently
// remembers: 1 means every requested coalition was served from cache.
type CacheMetrics struct {
	// WarmedTotal sums every job's coalitions preloaded from the
	// persistent store; FreshTotal sums fresh coalition evaluations.
	WarmedTotal int64 `json:"warmed_total"`
	FreshTotal  int64 `json:"fresh_total"`
	// HitRatio is WarmedTotal / (WarmedTotal + FreshTotal), 0 when no
	// coalition has been requested yet.
	HitRatio float64 `json:"hit_ratio"`
	// StoreFingerprints and StoreBytes describe the persistent store on
	// disk (0 when persistence is disabled).
	StoreFingerprints int   `json:"store_fingerprints"`
	StoreBytes        int64 `json:"store_bytes"`
	// Compactions counts background store+journal compaction sweeps run
	// since start (fedvald -compact-every); CompactionDropped sums the
	// duplicate records they removed.
	Compactions       int64 `json:"compactions"`
	CompactionDropped int64 `json:"compaction_dropped"`
}

// JournalMetrics is the durability section of GET /metrics.
type JournalMetrics struct {
	// Path is the journal file (empty when durability is disabled) and
	// Bytes its current size on disk.
	Path  string `json:"path,omitempty"`
	Bytes int64  `json:"bytes"`
}

// Metrics is the GET /metrics response: one JSON snapshot of queue depth,
// cache effectiveness, journal size and — when a worker fleet is
// configured — the adaptive scheduler's per-worker state.
type Metrics struct {
	Jobs    JobMetrics     `json:"jobs"`
	Cache   CacheMetrics   `json:"cache"`
	Journal JournalMetrics `json:"journal"`
	// Fleet is nil when the daemon runs without -worker-addr.
	Fleet *FleetMetrics `json:"fleet,omitempty"`
	// Degraded reports memory-only operation: a journal or store write
	// failed and the daemon is running without persistence until its
	// background probe restores it (see OPERATIONS.md, "Failure modes &
	// degraded operation").
	Degraded bool `json:"degraded,omitempty"`
}

// ServiceError is a non-2xx daemon response.
type ServiceError struct {
	StatusCode int
	Message    string
	// RetryAfter carries the server's Retry-After hint on throttled
	// responses (HTTP 429 when the job queue is saturated); 0 when the
	// response had none. Retry policies prefer it over computed backoff.
	RetryAfter time.Duration
}

// Error implements error.
func (e *ServiceError) Error() string {
	return fmt.Sprintf("fedshap: service: %s (HTTP %d)", e.Message, e.StatusCode)
}

// RetryAfterHint implements resilience.RetryAfterHinter.
func (e *ServiceError) RetryAfterHint() time.Duration { return e.RetryAfter }

// ErrJobNotFound is reported for unknown job IDs.
var ErrJobNotFound = errors.New("fedshap: job not found")

// ServiceClient talks to a fedvald daemon.
type ServiceClient struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8787".
	BaseURL string
	// HTTPClient overrides http.DefaultClient when set.
	HTTPClient *http.Client
	// Retry, when non-nil, governs transparent request retries:
	// idempotent GETs are retried on transport errors and 502/503/504,
	// and any request on 429 — honoring the server's Retry-After over
	// the policy's own backoff. NewServiceClient installs a conservative
	// default; set nil (or build the struct directly) to disable.
	Retry *resilience.Policy
}

// NewServiceClient builds a client for the daemon at base.
func NewServiceClient(base string) *ServiceClient {
	return &ServiceClient{
		BaseURL: strings.TrimRight(base, "/"),
		Retry: &resilience.Policy{
			Initial:     200 * time.Millisecond,
			Max:         5 * time.Second,
			MaxAttempts: 4,
		},
	}
}

func (c *ServiceClient) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *ServiceClient) do(ctx context.Context, method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		payload = buf
	}
	attempt := func(ctx context.Context) error {
		var rd io.Reader
		if payload != nil {
			rd = bytes.NewReader(payload)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
		if err != nil {
			return err
		}
		if payload != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.httpClient().Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			return decodeServiceError(resp)
		}
		if out == nil {
			return nil
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}
	if c.Retry == nil {
		return attempt(ctx)
	}
	return c.Retry.Do(ctx, func(ctx context.Context) error {
		err := attempt(ctx)
		if err == nil || retryableRequestError(method, err) {
			return err
		}
		return resilience.Permanent(err)
	})
}

// retryableRequestError decides which failures a retry can plausibly
// fix: a 429 on any method (the request was rejected before any state
// changed, and the server asked us back), and transport errors or
// gateway-style 5xx on idempotent GETs. Everything else — validation
// errors, not-found, a 503 from a daemon that is shutting down, or a
// transport error on a POST that may already have been applied — is
// permanent.
func retryableRequestError(method string, err error) bool {
	var se *ServiceError
	if errors.As(err, &se) {
		if se.StatusCode == http.StatusTooManyRequests {
			return true
		}
		if method == http.MethodGet {
			switch se.StatusCode {
			case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
				return true
			}
		}
		return false
	}
	if errors.Is(err, ErrJobNotFound) {
		return false
	}
	if method == http.MethodGet {
		var ue *url.Error
		return errors.As(err, &ue)
	}
	return false
}

// decodeServiceError turns a non-2xx daemon response into an error,
// extracting the {"error": "..."} envelope and any Retry-After hint
// when present.
func decodeServiceError(resp *http.Response) error {
	if resp.StatusCode == http.StatusNotFound {
		return ErrJobNotFound
	}
	var e struct {
		Error string `json:"error"`
	}
	msg := resp.Status
	if json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&e) == nil && e.Error != "" {
		msg = e.Error
	}
	se := &ServiceError{StatusCode: resp.StatusCode, Message: msg}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
			se.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return se
}

// Submit enqueues a valuation job and returns its initial status.
func (c *ServiceClient) Submit(ctx context.Context, req JobRequest) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// SubmitBatch enqueues many jobs in one POST /v1/jobs:batch round trip.
// Admission is per-item: the response carries one BatchItem per request
// job, each a status or a rejection message, so a partially full queue
// accepts what fits. The call errors only when the batch itself is
// rejected (empty, oversized, or the daemon is unreachable).
func (c *ServiceClient) SubmitBatch(ctx context.Context, reqs []JobRequest) (*BatchResponse, error) {
	var resp BatchResponse
	if err := c.do(ctx, http.MethodPost, "/v1/jobs:batch", BatchRequest{Jobs: reqs}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Job fetches the current status of one job.
func (c *ServiceClient) Job(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Jobs lists every job the daemon knows, newest first.
func (c *ServiceClient) Jobs(ctx context.Context) ([]*JobStatus, error) {
	return c.JobsSince(ctx, "", 0)
}

// JobsSince pages the job history (GET /v1/jobs?since=...&limit=...).
// since is a job ID or an RFC 3339 timestamp: only jobs submitted
// strictly after it are returned, oldest first, so a poller passes the
// last ID it saw and receives exactly the jobs it missed. An empty since
// lists newest first (the plain Jobs ordering). limit > 0 caps the page
// size. An unknown since job ID reports ErrJobNotFound.
func (c *ServiceClient) JobsSince(ctx context.Context, since string, limit int) ([]*JobStatus, error) {
	path := "/v1/jobs"
	q := url.Values{}
	if since != "" {
		q.Set("since", since)
	}
	if limit > 0 {
		q.Set("limit", fmt.Sprint(limit))
	}
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var out []*JobStatus
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Trace fetches a job's span timeline (GET /v1/jobs/{id}/trace). Traces
// exist for jobs run by the current daemon process; for a job replayed
// from the journal after a restart the timeline is empty.
func (c *ServiceClient) Trace(ctx context.Context, id string) (*JobTrace, error) {
	var tr JobTrace
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/trace", nil, &tr); err != nil {
		return nil, err
	}
	return &tr, nil
}

// Cancel requests cancellation of a queued or running job and returns the
// resulting status.
func (c *ServiceClient) Cancel(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Workers lists the remote evaluation workers attached to the daemon.
// With no worker fleet configured the list is empty and jobs evaluate
// in-process.
func (c *ServiceClient) Workers(ctx context.Context) ([]WorkerInfo, error) {
	var out []WorkerInfo
	if err := c.do(ctx, http.MethodGet, "/v1/workers", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Metrics fetches the daemon's operational snapshot (GET /metrics): queue
// depth, cache hit ratio, journal size and the evaluation fleet's
// per-worker scheduler state.
func (c *ServiceClient) Metrics(ctx context.Context) (*Metrics, error) {
	var m Metrics
	if err := c.do(ctx, http.MethodGet, "/metrics", nil, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// Report fetches the final report of a completed job.
func (c *ServiceClient) Report(ctx context.Context, id string) (*Report, error) {
	var r Report
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/report", nil, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// Revalue asks the daemon to revalue a finished job after the given
// clients' data changed (POST /v1/jobs/{id}/revalue). It returns the status
// of the newly submitted follow-up job, whose RevalueOf field links back to
// id. Coalitions not containing a changed client are warm-started from the
// fingerprint store, so the follow-up spends fresh evaluations only on the
// changed part of the game.
func (c *ServiceClient) Revalue(ctx context.Context, id string, changed []int) (*JobStatus, error) {
	var st JobStatus
	path := "/v1/jobs/" + url.PathEscape(id) + "/revalue"
	if err := c.do(ctx, http.MethodPost, path, RevalueRequest{Changed: changed}, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// WatchJob subscribes to a job's server-sent event stream
// (GET /v1/jobs/{id}/events) and returns its final status once the job
// reaches a terminal state. onEvent, when non-nil, observes every
// notification: event is the transition name — "submitted", "running",
// "progress", "done", "failed", "cancelled" or "timed_out" — and st is the job's full
// status snapshot at that moment (the done snapshot carries the Report).
// The daemon pushes events as they happen, so progress arrives without
// polling latency or per-poll request cost; it also emits ": ping"
// heartbeat comments on idle streams so aggressive proxies keep the
// connection open.
//
// A stream that drops before a terminal event — a proxy idle-timeout or a
// momentary network fault — is resumed automatically: WatchJob reconnects
// with a Last-Event-ID header carrying the last event id it saw, so the
// daemon skips the snapshot the client already holds and continues from
// the next transition. Reconnection gives up after a few consecutive
// attempts that deliver nothing new (a daemon restart, or one predating
// the events endpoint) and returns an error; callers wanting full
// robustness fall back to polling Wait, as `fedval -server` does.
// Cancelling ctx closes the stream and returns the last status seen
// alongside ctx.Err().
func (c *ServiceClient) WatchJob(ctx context.Context, id string, onEvent func(event string, st *JobStatus)) (*JobStatus, error) {
	return c.watch(ctx, id, onEvent, nil)
}

// WatchValues is WatchJob plus a live feed of the job's anytime estimates:
// onValues observes every interim "values" snapshot the daemon streams (a
// job submitted without Confidence produces none). Reconnection and
// terminal-status semantics match WatchJob.
func (c *ServiceClient) WatchValues(ctx context.Context, id string, onEvent func(event string, st *JobStatus), onValues func(*InterimValues)) (*JobStatus, error) {
	return c.watch(ctx, id, onEvent, onValues)
}

func (c *ServiceClient) watch(ctx context.Context, id string, onEvent func(event string, st *JobStatus), onValues func(*InterimValues)) (*JobStatus, error) {
	var (
		last        *JobStatus
		lastEventID string
		stale       int // consecutive attempts with no event AND no heartbeat
		lastErr     error
	)
	for stale < 3 {
		st, alive, err := c.watchStream(ctx, id, lastEventID, &lastEventID, &last, onEvent, onValues)
		if st != nil {
			return st, nil
		}
		if ctx.Err() != nil {
			return last, ctx.Err()
		}
		var se *ServiceError
		if errors.As(err, &se) || errors.Is(err, ErrJobNotFound) {
			return last, err // the daemon answered: reconnecting won't help
		}
		lastErr = err
		if alive {
			stale = 0
		} else {
			stale++
		}
		// Breathe before redialling: a daemon mid-restart refuses
		// connections for a moment, and instant retries would burn every
		// attempt inside that window.
		select {
		case <-ctx.Done():
			return last, ctx.Err()
		case <-time.After(250 * time.Millisecond):
		}
	}
	return last, fmt.Errorf("fedshap: event stream ended before a terminal event: %w", lastErr)
}

// watchStream consumes one SSE connection. It returns the terminal status
// when one arrives; otherwise it reports whether the stream showed any
// sign of life — an event, or a ": ping" heartbeat comment — and the
// error that broke it. Heartbeats count: a quiet job behind a proxy that
// drops idle connections produces reconnect cycles that deliver only
// pings, and those must not be mistaken for a dead daemon. lastID, when
// non-empty, is sent as Last-Event-ID so the daemon resumes past events
// the client already processed.
func (c *ServiceClient) watchStream(ctx context.Context, id, lastID string, idOut *string, last **JobStatus, onEvent func(event string, st *JobStatus), onValues func(*InterimValues)) (*JobStatus, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/jobs/"+url.PathEscape(id)+"/events", nil)
	if err != nil {
		return nil, false, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if lastID != "" {
		req.Header.Set("Last-Event-ID", lastID)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return nil, false, decodeServiceError(resp)
	}
	br := bufio.NewReader(resp.Body)
	var event string
	var data []byte
	alive := false
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return nil, alive, err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "": // blank line terminates one SSE frame
			if len(data) == 0 {
				continue // heartbeat comment or id-only frame
			}
			if event == "values" {
				// Interim anytime snapshot: a different payload type, so it
				// must never be decoded into the JobStatus tracking below.
				var iv InterimValues
				if json.Unmarshal(data, &iv) == nil {
					alive = true
					if onValues != nil {
						onValues(&iv)
					}
				}
				event, data = "", nil
				continue
			}
			var st JobStatus
			if json.Unmarshal(data, &st) == nil {
				*last = &st
				alive = true
				if onEvent != nil {
					onEvent(event, &st)
				}
				if st.State.Terminal() {
					return &st, true, nil
				}
			}
			event, data = "", nil
		case strings.HasPrefix(line, ":"): // comment (heartbeat)
			alive = true
		case strings.HasPrefix(line, "id:"):
			*idOut = strings.TrimSpace(strings.TrimPrefix(line, "id:"))
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimSpace(strings.TrimPrefix(line, "data:"))...)
		}
	}
}

// Wait polls the job every interval until it reaches a terminal state or
// ctx is done. onPoll, when non-nil, observes every polled status — the
// hook progress bars attach to. WatchJob is the push-based alternative;
// Wait remains the fallback when the event stream is unavailable.
func (c *ServiceClient) Wait(ctx context.Context, id string, interval time.Duration, onPoll func(*JobStatus)) (*JobStatus, error) {
	if interval <= 0 {
		interval = 200 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if onPoll != nil {
			onPoll(st)
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-t.C:
		}
	}
}
