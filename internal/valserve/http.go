package valserve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"fedshap"
)

// NewHandler exposes a Manager as the fedvald JSON API:
//
//	POST   /v1/jobs             submit a job (fedshap.JobRequest → JobStatus)
//	POST   /v1/jobs:batch       submit many jobs in one request (per-item admission)
//	GET    /v1/jobs             list jobs, newest first (?since=, ?limit= paginate)
//	GET    /v1/jobs/{id}        poll one job's status and progress
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/jobs/{id}/events stream job events (Server-Sent Events)
//	GET    /v1/jobs/{id}/report fetch a finished job's valuation report
//	GET    /v1/jobs/{id}/trace  fetch a job's trace timeline (spans)
//	POST   /v1/jobs/{id}/revalue submit a delta revaluation of a done job
//	GET    /v1/workers          list attached remote evaluation workers
//	GET    /metrics             operational snapshot (JSON; Prometheus text
//	                            with Accept: text/plain or ?format=prometheus)
//	GET    /healthz             liveness probe
//
// Errors are returned as {"error": "..."} with a matching status code.
// See docs/api.md at the repo root for the full request/response schema.
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Degraded (memory-only persistence) is still 200: the daemon is
		// alive and serving jobs, and a restart would lose the in-memory
		// state a probe-driven restart loop is supposed to protect. The
		// body says so; alerting keys off the fedvald_degraded gauge.
		status := "ok"
		if m.Degraded() {
			status = "degraded"
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": status})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		// Content negotiation: the JSON snapshot stays the default for
		// humans and the CLI; a Prometheus scraper gets the text
		// exposition format by Accept header or explicit query.
		if r.URL.Query().Get("format") == "prometheus" ||
			strings.Contains(r.Header.Get("Accept"), "text/plain") {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			w.WriteHeader(http.StatusOK)
			_ = m.Registry().WriteText(w)
			return
		}
		writeJSON(w, http.StatusOK, m.Metrics())
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req fedshap.JobRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
			return
		}
		st, err := m.Submit(req)
		if err != nil {
			writeSubmitError(w, m, err)
			return
		}
		writeJSON(w, http.StatusAccepted, st)
	})
	// Batch submission: one round trip for a burst of jobs. Admission is
	// per-item — the response aligns 1:1 with the request and mixes
	// accepted statuses with rejection messages — so load generators and
	// tenant onboarding bursts don't serialise on per-job round trips. The
	// whole batch is rejected (400/413) only when it is empty, oversized,
	// or unparsable.
	mux.HandleFunc("POST /v1/jobs:batch", func(w http.ResponseWriter, r *http.Request) {
		var batch fedshap.BatchRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, 8<<20)).Decode(&batch); err != nil {
			writeError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
			return
		}
		if len(batch.Jobs) == 0 {
			writeError(w, http.StatusBadRequest, "empty batch: provide at least one job")
			return
		}
		if len(batch.Jobs) > fedshap.MaxBatchJobs {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("batch of %d jobs exceeds the limit %d", len(batch.Jobs), fedshap.MaxBatchJobs))
			return
		}
		statuses, errs := m.SubmitBatch(batch.Jobs)
		resp := fedshap.BatchResponse{Jobs: make([]fedshap.BatchItem, len(statuses))}
		for i := range statuses {
			if errs[i] != nil {
				resp.Jobs[i].Error = errs[i].Error()
				continue
			}
			resp.Jobs[i].Status = statuses[i]
			resp.Accepted++
		}
		writeJSON(w, http.StatusOK, &resp)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		limit := 0
		if raw := q.Get("limit"); raw != "" {
			n, err := strconv.Atoi(raw)
			if err != nil || n < 0 {
				writeError(w, http.StatusBadRequest, "invalid limit: "+raw)
				return
			}
			limit = n
		}
		jobs, err := m.ListSince(q.Get("since"), limit)
		if err != nil {
			writeError(w, http.StatusNotFound, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, jobs)
	})
	mux.HandleFunc("GET /v1/workers", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.Workers())
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.Get(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.Cancel(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	// Server-Sent Events: an initial snapshot event, then every state
	// transition and progress checkpoint until the job terminates. Each
	// frame is "id: <seq>" + "event: <type>" + "data: <JobStatus JSON>".
	// Idle streams are kept alive with ": ping" heartbeat comments
	// (Config.SSEHeartbeat) so aggressive proxies don't cut them. A
	// reconnecting client sends Last-Event-ID with the last id it saw;
	// because every event carries a self-contained snapshot, resume is
	// simply skipping non-terminal events at or below that id — terminal
	// events are always delivered. The stream closes itself after the
	// terminal event; clients that lose it permanently fall back to
	// polling GET /v1/jobs/{id}.
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		ch, cancel, err := m.Watch(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err.Error())
			return
		}
		defer cancel()
		fl, ok := w.(http.Flusher)
		if !ok {
			writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
			return
		}
		lastSeen, _ := strconv.ParseUint(r.Header.Get("Last-Event-ID"), 10, 64)
		h := w.Header()
		h.Set("Content-Type", "text/event-stream")
		h.Set("Cache-Control", "no-cache")
		w.WriteHeader(http.StatusOK)
		fl.Flush()

		heartbeat := m.cfg.SSEHeartbeat
		if heartbeat == 0 {
			heartbeat = 15 * time.Second
		}
		var ping <-chan time.Time
		if heartbeat > 0 {
			t := time.NewTicker(heartbeat)
			defer t.Stop()
			ping = t.C
		}
		for {
			select {
			case <-r.Context().Done():
				return // client went away
			case <-ping:
				// An SSE comment: ignored by parsers, but traffic enough
				// to keep proxy idle-timeout clocks at zero.
				fmt.Fprint(w, ": ping\n\n")
				fl.Flush()
			case ev, ok := <-ch:
				if !ok {
					return // terminal event delivered
				}
				terminal := ev.Status != nil && ev.Status.State.Terminal()
				// The seed snapshot reflects the job's state *now*, which
				// may be newer than the event id it is stamped with, so
				// it is always delivered; so are terminal events. The
				// filter drops only genuinely stale intermediate events —
				// in practice ones from a previous daemon life.
				if !ev.Seed && !terminal && lastSeen > 0 && ev.Seq > 0 && ev.Seq <= lastSeen {
					continue
				}
				// Values events carry an InterimValues snapshot instead of
				// a JobStatus; everything else about the frame (id, resume
				// filtering above) is shared with lifecycle events.
				var payload any = ev.Status
				if ev.Values != nil {
					payload = ev.Values
				}
				data, err := json.Marshal(payload)
				if err != nil {
					continue
				}
				if ev.Seq > 0 {
					fmt.Fprintf(w, "id: %d\n", ev.Seq)
				}
				fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
				fl.Flush()
			}
		}
	})
	// Delta revaluation: bump the listed clients' dataset versions on a
	// completed job's problem and resubmit it. Utilities of coalitions
	// untouched by the change migrate to the new fingerprint first, so the
	// follow-up job spends fresh trainings only where the data actually
	// changed.
	mux.HandleFunc("POST /v1/jobs/{id}/revalue", func(w http.ResponseWriter, r *http.Request) {
		var req fedshap.RevalueRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
			return
		}
		st, err := m.Revalue(r.PathValue("id"), req.Changed)
		if err != nil {
			writeSubmitError(w, m, err)
			return
		}
		writeJSON(w, http.StatusAccepted, st)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		tr, err := m.Trace(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, tr)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.Get(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err.Error())
			return
		}
		if st.Report == nil {
			writeError(w, http.StatusConflict, "job has no report yet: state="+string(st.State))
			return
		}
		writeJSON(w, http.StatusOK, st.Report)
	})
	return mux
}

// writeSubmitError maps a Submit or Revalue error to its response. Queue
// saturation is 429 Too Many Requests with a Retry-After hint derived from
// the observed queue drain rate, so clients back off for roughly one
// dequeue interval instead of hammering a full queue; 503 is reserved for
// a daemon that is shutting down, and anything unrecognised is the
// request's fault.
func writeSubmitError(w http.ResponseWriter, m *Manager, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrNotRevaluable):
		code = http.StatusConflict
	case errors.Is(err, ErrQueueFull):
		code = http.StatusTooManyRequests
		w.Header().Set("Retry-After", strconv.Itoa(int(m.SubmitRetryAfter()/time.Second)))
	case errors.Is(err, ErrClosed):
		code = http.StatusServiceUnavailable
	}
	writeError(w, code, err.Error())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
