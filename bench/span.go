package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Start and End are
// seconds since the recorder was created; Parent is the index of the span
// that caused this one (-1 for an operation's root); spans of one
// operation share OpID.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Parent int     `json:"parent"`
	OpID   int     `json:"op_id"`
}

func (s span) seconds() float64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced pass: every method is a no-op, so the measured code path is
// the same with tracing off, minus the clock reads.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// spanRef is a handle on an open span; the zero value (untraced) ignores
// every call.
type spanRef struct {
	rec *recorder
	id  int
	op  int
}

// root opens the top-level span of operation op.
func (r *recorder) root(name string, op int) spanRef {
	if r == nil {
		return spanRef{}
	}
	return r.open(name, -1, op, time.Now())
}

func (r *recorder) open(name string, parent, op int, at time.Time) spanRef {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: at.Sub(r.t0).Seconds(), Parent: parent, OpID: op})
	return spanRef{rec: r, id: len(r.spans) - 1, op: op}
}

// child opens a span caused by s.
func (s spanRef) child(name string) spanRef {
	if s.rec == nil {
		return spanRef{}
	}
	return s.rec.open(name, s.id, s.op, time.Now())
}

// add records a span measured elsewhere (the daemon's own job trace) as a
// child of s.
func (s spanRef) add(name string, start, end time.Time) {
	if s.rec == nil {
		return
	}
	ref := s.rec.open(name, s.id, s.op, start)
	ref.endAt(end)
}

func (s spanRef) end() {
	if s.rec != nil {
		s.endAt(time.Now())
	}
}

func (s spanRef) endAt(at time.Time) {
	s.rec.mu.Lock()
	s.rec.spans[s.id].End = at.Sub(s.rec.t0).Seconds()
	s.rec.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// durations lists the duration of every span called name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.seconds())
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover. Children may overlap one another (pool
// workers evaluating side by side) and may stick out of the parent (a
// daemon span stamped on another clock tick); covered time is the union of
// the child intervals clipped to the parent, so it is never counted twice
// and self time is never negative.
func selfTimes(spans []span) []float64 {
	type iv struct{ lo, hi float64 }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			p := spans[s.Parent]
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
			}
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		ivs := kids[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, edge := 0.0, s.Start
		for _, k := range ivs {
			if k.hi <= edge {
				continue
			}
			covered += k.hi - max(k.lo, edge)
			edge = k.hi
		}
		self[i] = s.seconds() - covered
	}
	return self
}

// writeSpans dumps the trace as JSON under dir.
func writeSpans(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	buf, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, buf, 0o644)
}
