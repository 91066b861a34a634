// Package obs is the telemetry substrate shared by the fedvald daemon,
// the evalnet coordinator and the fedvalworker daemons: a lock-cheap
// metrics registry with a Prometheus text-format (0.0.4) writer, a
// lightweight per-job span recorder for end-to-end trace timelines, a
// pprof/debug listener, and structured-logging helpers.
//
// The package is deliberately dependency-free (stdlib only — no OTel, no
// client_golang): the valuation service needs counters, gauges,
// fixed-bucket histograms and spans, nothing more, and a scrape must never
// allocate proportionally to traffic. Hot-path instruments are built on
// atomics; the registry mutex is taken only at registration and scrape
// time.
//
// Metric naming is enforced at registration (see Lint): every series is
// prefixed with its emitting process (fedvald_, fedvalworker_) and carries
// a unit suffix (_seconds, _bytes, _total, ...), so dashboards and alerts
// survive refactors by construction rather than by review.
package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the series to stay a counter).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram is a fixed-bucket latency/size histogram. Buckets are
// cumulative-on-read: Observe touches exactly one bucket counter plus the
// sum and count, so the hot path is three atomic operations and no locks.
type Histogram struct {
	bounds  []float64 // sorted upper bounds (le), +Inf implicit
	counts  []atomic.Int64
	sumBits atomic.Uint64
	count   atomic.Int64
}

// newHistogram builds a histogram over the given bucket upper bounds.
func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one sample. A sample exactly equal to a bucket bound
// lands in that bucket (le is ≤, per the exposition format).
func (h *Histogram) Observe(v float64) {
	// First bound >= v; equal bounds are inclusive.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// ExpBuckets returns n bucket bounds growing geometrically from start by
// factor — the standard shape for latency histograms spanning decades.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Sample is one dynamically collected series value: a label set and the
// value sampled at scrape time. Collectors return them for series whose
// children are not known at registration (per-worker gauges, per-state
// counts).
type Sample struct {
	// Labels are label pairs in "key", "value" order.
	Labels []string
	// Value is the sampled value.
	Value float64
}

// Type describes a registered series for exposition and linting.
type Type string

// The supported series types.
const (
	TypeCounter   Type = "counter"
	TypeGauge     Type = "gauge"
	TypeHistogram Type = "histogram"
)

// series is one registered child under a family.
type series struct {
	labels  []string // "key", "value" pairs
	counter *Counter
	gfn     func() float64
	hist    *Histogram
}

// family groups every child sharing a metric name.
type family struct {
	name    string
	help    string
	typ     Type
	series  []*series
	collect func() []Sample // dynamic children, sampled at scrape
}

// Registry holds named series and writes them in Prometheus text format.
// Registration is typically done once at startup; scraping takes the
// registry lock only to walk the family list.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string

	// scrapeMu serialises expositions, so the state onScrape prepares is
	// the one every scrape-time series of that exposition reads.
	scrapeMu sync.Mutex
	onScrape func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var nameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// fam returns (creating if needed) the family for name, panicking on a
// type conflict or an invalid name — registration errors are programming
// errors, caught by the lint test, not runtime conditions.
func (r *Registry) fam(name, help string, typ Type) *family {
	if !nameRe.MatchString(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.families[name] = f
		r.order = append(r.order, name)
		return f
	}
	if f.typ != typ {
		panic("obs: metric " + name + " re-registered as " + string(typ) + ", was " + string(f.typ))
	}
	return f
}

// NewCounter registers and returns a counter. labels are "key", "value"
// pairs; registering the same name with different label sets creates
// sibling children under one family.
func (r *Registry) NewCounter(name, help string, labels ...string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := &Counter{}
	f := r.fam(name, help, TypeCounter)
	f.series = append(f.series, &series{labels: labels, counter: c})
	return c
}

// NewGaugeFunc registers a gauge whose value is sampled at scrape time —
// for values that already live elsewhere (queue depth, file sizes).
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fam(name, help, TypeGauge)
	f.series = append(f.series, &series{labels: labels, gfn: fn})
}

// NewHistogram registers and returns a fixed-bucket histogram.
func (r *Registry) NewHistogram(name, help string, bounds []float64, labels ...string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := newHistogram(bounds)
	f := r.fam(name, help, TypeHistogram)
	f.series = append(f.series, &series{labels: labels, hist: h})
	return h
}

// NewCollector registers a family whose children (label sets and values)
// are produced by collect at every scrape — the shape for per-worker
// series, where workers attach and die at runtime. typ must be
// TypeCounter or TypeGauge.
func (r *Registry) NewCollector(name, help string, typ Type, collect func() []Sample) {
	if typ == TypeHistogram {
		panic("obs: collector families must be counters or gauges: " + name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fam(name, help, typ)
	f.collect = collect
}

// OnScrape registers fn to run at the start of every WriteText, before any
// series is read. Expositions are serialised, so gauge functions and
// collectors can all project one snapshot fn takes — two series of one
// scrape then never disagree, and a source is sampled once per scrape
// however many series it feeds.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onScrape = fn
}

// Names returns every registered family name with its type, in
// registration order — the input to Lint.
func (r *Registry) Names() map[string]Type {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]Type, len(r.families))
	for name, f := range r.families {
		out[name] = f.typ
	}
	return out
}

// WriteText writes every registered series in Prometheus text exposition
// format 0.0.4: one # HELP and # TYPE line per family followed by its
// samples; histograms expand to cumulative _bucket{le=...} series plus
// _sum and _count.
func (r *Registry) WriteText(w io.Writer) error {
	// Rendered to memory under the scrape lock and written out after it,
	// so a stalled scraper never holds up the next one.
	_, err := w.Write(r.render())
	return err
}

func (r *Registry) render() []byte {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		fams = append(fams, r.families[name])
	}
	onScrape := r.onScrape
	r.mu.Unlock()

	bw := new(bytes.Buffer)
	r.scrapeMu.Lock()
	defer r.scrapeMu.Unlock()
	if onScrape != nil {
		onScrape()
	}
	for _, f := range fams {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			switch {
			case s.counter != nil:
				writeSample(bw, f.name, s.labels, "", float64(s.counter.Value()))
			case s.gfn != nil:
				writeSample(bw, f.name, s.labels, "", s.gfn())
			case s.hist != nil:
				writeHistogram(bw, f.name, s.labels, s.hist)
			}
		}
		if f.collect != nil {
			for _, smp := range f.collect() {
				writeSample(bw, f.name, smp.Labels, "", smp.Value)
			}
		}
	}
	return bw.Bytes()
}

// writeHistogram expands one histogram into its exposition series. Bucket
// counts are cumulative, ending at the implicit +Inf bucket whose count
// equals _count.
func writeHistogram(w io.Writer, name string, labels []string, h *Histogram) {
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		writeSample(w, name+"_bucket", append(append([]string{}, labels...), "le", formatFloat(bound)), "", float64(cum))
	}
	cum += h.counts[len(h.bounds)].Load()
	writeSample(w, name+"_bucket", append(append([]string{}, labels...), "le", "+Inf"), "", float64(cum))
	writeSample(w, name+"_sum", labels, "", h.Sum())
	writeSample(w, name+"_count", labels, "", float64(cum))
}

// writeSample writes one exposition sample line.
func writeSample(w io.Writer, name string, labels []string, suffix string, v float64) {
	if len(labels) == 0 {
		fmt.Fprintf(w, "%s%s %s\n", name, suffix, formatFloat(v))
		return
	}
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteString(suffix)
	sb.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(labels[i])
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(labels[i+1]))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	fmt.Fprintf(w, "%s %s\n", sb.String(), formatFloat(v))
}

// formatFloat renders a sample value: integers without exponent, +Inf as
// the exposition format spells it.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// Lint checks every registered series name against the repo's metric
// naming convention and returns one problem string per violation:
//
//   - every name carries a process prefix: fedvald_ or fedvalworker_
//   - counters end in _total
//   - histograms end in a unit: _seconds or _bytes
//   - gauges end in a unit or counted-noun suffix (_seconds, _bytes,
//     _ratio, _workers, _jobs, _tasks, _subscribers, _fingerprints,
//     _specs, _writes) or — for 0/1 condition flags, in the spirit of
//     Prometheus's own bare "up" — in a state adjective (_up,
//     _degraded), and never in _total (which would masquerade as a
//     counter)
//
// The convention is enforced by a test over the live registries, so a new
// series cannot merge without a scrape-stable, unit-suffixed name.
func Lint(names map[string]Type) []string {
	var problems []string
	gaugeSuffixes := []string{
		"_seconds", "_bytes", "_ratio", "_workers", "_jobs",
		"_tasks", "_subscribers", "_fingerprints", "_specs", "_writes",
		"_up", "_degraded",
	}
	for name, typ := range names {
		if !strings.HasPrefix(name, "fedvald_") && !strings.HasPrefix(name, "fedvalworker_") {
			problems = append(problems, name+": missing fedvald_/fedvalworker_ process prefix")
		}
		switch typ {
		case TypeCounter:
			if !strings.HasSuffix(name, "_total") {
				problems = append(problems, name+": counter must end in _total")
			}
		case TypeHistogram:
			if !strings.HasSuffix(name, "_seconds") && !strings.HasSuffix(name, "_bytes") {
				problems = append(problems, name+": histogram must end in a unit suffix (_seconds or _bytes)")
			}
		case TypeGauge:
			if strings.HasSuffix(name, "_total") {
				problems = append(problems, name+": gauge must not end in _total")
				continue
			}
			ok := false
			for _, suf := range gaugeSuffixes {
				if strings.HasSuffix(name, suf) {
					ok = true
					break
				}
			}
			if !ok {
				problems = append(problems, name+": gauge must end in a unit or counted-noun suffix "+
					strings.Join(gaugeSuffixes, "/"))
			}
		}
	}
	sort.Strings(problems)
	return problems
}
