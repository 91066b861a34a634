package valserve

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"time"

	"fedshap"
)

// newID mints a unique job identifier: a submission ordinal plus random
// suffix.
func (m *Manager) newID() string {
	var b [4]byte
	_, _ = rand.Read(b[:])
	m.seq++
	return fmt.Sprintf("j%04d-%s", m.seq, hex.EncodeToString(b[:]))
}

// Submit validates, registers and enqueues a job, returning its initial
// status.
func (m *Manager) Submit(req fedshap.JobRequest) (*fedshap.JobStatus, error) {
	return m.submit(req, "")
}

// submit is Submit with provenance: revalueOf, when non-empty, links the
// new job back to the completed job it revalues (POST /v1/jobs/{id}/revalue).
func (m *Manager) submit(req fedshap.JobRequest, revalueOf string) (*fedshap.JobStatus, error) {
	Normalize(&req)
	if err := ValidateRequest(req, m.cfg.BuildProblem != nil); err != nil {
		return nil, err
	}
	j := m.newJob(fedshap.JobStatus{
		State:       fedshap.JobQueued,
		Request:     req,
		Fingerprint: Fingerprint(req),
		Budget:      budgetFor(req),
		RevalueOf:   revalueOf,
	}, "submit", "algorithm", req.Algorithm)
	// emitMu is held from before the job becomes visible until the
	// submitted event is out, so a worker picking the job up immediately
	// cannot journal its running event ahead of the submission record.
	j.emitMu.Lock()
	defer j.emitMu.Unlock()
	m.mu.Lock()
	err := m.admitLocked(j)
	m.mu.Unlock()
	if err != nil {
		j.cancel()
		return nil, err
	}
	st := j.snapshot()
	m.tel.jobsSubmitted.Inc()
	j.notify(EventSubmitted, st)
	return st, nil
}

// admitLocked names the job, registers it and hands it to the worker pool,
// or says why not. Admission is bounded by the configured QueueCap (scaled
// by the watermark), not the channel's capacity: recovery may have sized
// the channel larger to fit a replayed backlog, and that headroom must not
// leak into a higher steady-state admission limit. Identity, submission
// time, the length check and the send all happen under m.mu, so the bound
// is exact and ID order, SubmittedAt order and queue order agree.
func (m *Manager) admitLocked(j *Job) error {
	if m.closed {
		return ErrClosed
	}
	j.enqueuedAt = time.Now().UTC()
	j.status.ID, j.status.SubmittedAt = m.newID(), j.enqueuedAt
	if len(m.queue) < m.admitLimit() {
		select {
		case m.queue <- j:
			m.jobs[j.status.ID] = j
			return nil
		default:
		}
	}
	return ErrQueueFull
}

// admitLimit is the admission bound: QueueCap scaled by the configured
// watermark, at least 1.
func (m *Manager) admitLimit() int {
	if w := m.cfg.AdmitWatermark; w > 0 && w < 1 {
		if limit := int(float64(m.cfg.QueueCap) * w); limit >= 1 {
			return limit
		}
		return 1
	}
	return m.cfg.QueueCap
}

// SubmitBatch validates and enqueues many jobs in one call — the
// POST /v1/jobs:batch entry point. Admission is per-item and in request
// order: each job is accepted or rejected independently, so a batch that
// overflows the queue admits a prefix and reports ErrQueueFull for the
// rest instead of failing whole. The returned slices align 1:1 with reqs;
// exactly one of statuses[i] / errs[i] is non-nil.
func (m *Manager) SubmitBatch(reqs []fedshap.JobRequest) (statuses []*fedshap.JobStatus, errs []error) {
	statuses = make([]*fedshap.JobStatus, len(reqs))
	errs = make([]error, len(reqs))
	for i, req := range reqs {
		statuses[i], errs[i] = m.Submit(req)
	}
	return statuses, errs
}

// noteDequeue feeds the queue-drain EWMA each time a pool worker picks
// up a job — the basis for SubmitRetryAfter's 429 hint.
func (m *Manager) noteDequeue() {
	now := time.Now()
	m.drainMu.Lock()
	if !m.lastDequeue.IsZero() {
		d := now.Sub(m.lastDequeue)
		if m.drainEWMA == 0 {
			m.drainEWMA = d
		} else {
			m.drainEWMA = (3*m.drainEWMA + d) / 4
		}
	}
	m.lastDequeue = now
	m.drainMu.Unlock()
}

// SubmitRetryAfter estimates when a rejected submission is worth
// retrying: roughly one queue-drain interval, from the EWMA of the
// worker pool's dequeue cadence. With no drain history it answers 1s.
// The result is clamped to [1s, 60s] and rounded up to whole seconds —
// the granularity of an HTTP Retry-After header.
func (m *Manager) SubmitRetryAfter() time.Duration {
	m.drainMu.Lock()
	d := m.drainEWMA
	m.drainMu.Unlock()
	secs := int64(1)
	if d > 0 {
		secs = min(int64((d+time.Second-1)/time.Second), 60)
	}
	return time.Duration(secs) * time.Second
}
