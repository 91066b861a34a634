package obs

import (
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// checkExposition is a strict Prometheus text-format (0.0.4) line checker:
// every line must be a well-formed # HELP, # TYPE, or sample line; every
// sample must belong to the most recently declared family (allowing the
// _bucket/_sum/_count expansions for histograms); histogram buckets must
// be cumulative and end in a +Inf bucket equal to _count. It returns the
// parsed samples keyed by "name{labels}".
func checkExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	sampleRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})? (-?[0-9.e+\-]+|\+Inf|NaN)$`)
	labelRe := regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$`)
	samples := make(map[string]float64)
	var curName, curType string
	seenHelp := map[string]bool{}
	var lastBucketCum float64
	var sawInf bool
	for i, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || name == "" {
				t.Fatalf("line %d: malformed HELP: %q", i+1, line)
			}
			if seenHelp[name] {
				t.Fatalf("line %d: duplicate HELP for %s", i+1, name)
			}
			seenHelp[name] = true
			curName, curType = name, ""
			lastBucketCum, sawInf = 0, false
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", i+1, line)
			}
			if fields[0] != curName {
				t.Fatalf("line %d: TYPE for %s not preceded by its HELP (current family %s)", i+1, fields[0], curName)
			}
			switch fields[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown type %q", i+1, fields[1])
			}
			curType = fields[1]
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unexpected comment %q", i+1, line)
		default:
			m := sampleRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed sample line %q", i+1, line)
			}
			name, labels, valStr := m[1], m[3], m[4]
			base := name
			isBucket := false
			if curType == "histogram" {
				for _, suf := range []string{"_bucket", "_sum", "_count"} {
					if strings.HasSuffix(name, suf) {
						base = strings.TrimSuffix(name, suf)
						isBucket = suf == "_bucket"
					}
				}
			}
			if base != curName {
				t.Fatalf("line %d: sample %s outside its family block (current %s)", i+1, name, curName)
			}
			if curType == "" {
				t.Fatalf("line %d: sample %s before TYPE line", i+1, name)
			}
			if labels != "" {
				for _, pair := range splitLabels(labels) {
					if !labelRe.MatchString(pair) {
						t.Fatalf("line %d: malformed label pair %q", i+1, pair)
					}
				}
			}
			var v float64
			switch valStr {
			case "+Inf":
				v = math.Inf(1)
			case "NaN":
				v = math.NaN()
			default:
				var err error
				v, err = strconv.ParseFloat(valStr, 64)
				if err != nil {
					t.Fatalf("line %d: bad value %q: %v", i+1, valStr, err)
				}
			}
			if isBucket {
				if v < lastBucketCum {
					t.Fatalf("line %d: histogram %s buckets not cumulative (%g after %g)", i+1, base, v, lastBucketCum)
				}
				lastBucketCum = v
				if strings.Contains(labels, `le="+Inf"`) {
					sawInf = true
				}
			}
			if strings.HasSuffix(name, "_count") && curType == "histogram" {
				if !sawInf {
					t.Fatalf("line %d: histogram %s has no +Inf bucket before _count", i+1, base)
				}
				if v != lastBucketCum {
					t.Fatalf("line %d: histogram %s _count %g != +Inf bucket %g", i+1, base, v, lastBucketCum)
				}
			}
			samples[name+"{"+labels+"}"] = v
		}
	}
	return samples
}

// splitLabels splits a label body on commas not inside quoted values.
func splitLabels(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("fedvald_jobs_submitted_total", "Jobs accepted.")
	c.Add(3)
	done := r.NewCounter("fedvald_jobs_completed_total", "Jobs finished.", "state", "done")
	failed := r.NewCounter("fedvald_jobs_completed_total", "Jobs finished.", "state", "failed")
	done.Add(2)
	failed.Inc()
	r.NewGaugeFunc("fedvald_sse_subscribers", "Attached SSE subscribers.", func() float64 { return 3 })
	r.NewGaugeFunc("fedvald_journal_bytes", "Journal size.", func() float64 { return 123 })
	h := r.NewHistogram("fedvald_job_duration_seconds", "End-to-end job latency.", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(99)
	r.NewCollector("fedvald_fleet_worker_inflight_tasks", "In-flight tasks per worker.", TypeGauge, func() []Sample {
		return []Sample{
			{Labels: []string{"worker", `w"1`, "id", "1"}, Value: 2},
			{Labels: []string{"worker", "w2", "id", "2"}, Value: 0},
		}
	})

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	text := sb.String()
	samples := checkExposition(t, text)

	want := map[string]float64{
		`fedvald_jobs_submitted_total{}`:                            3,
		`fedvald_jobs_completed_total{state="done"}`:                2,
		`fedvald_jobs_completed_total{state="failed"}`:              1,
		`fedvald_sse_subscribers{}`:                                 3,
		`fedvald_journal_bytes{}`:                                   123,
		`fedvald_job_duration_seconds_bucket{le="0.1"}`:             1,
		`fedvald_job_duration_seconds_bucket{le="1"}`:               2,
		`fedvald_job_duration_seconds_bucket{le="10"}`:              2,
		`fedvald_job_duration_seconds_bucket{le="+Inf"}`:            3,
		`fedvald_job_duration_seconds_count{}`:                      3,
		`fedvald_fleet_worker_inflight_tasks{worker="w\"1",id="1"}`: 2,
		`fedvald_fleet_worker_inflight_tasks{worker="w2",id="2"}`:   0,
	}
	for key, v := range want {
		got, ok := samples[key]
		if !ok {
			t.Errorf("missing sample %s in exposition:\n%s", key, text)
			continue
		}
		if got != v {
			t.Errorf("sample %s = %g, want %g", key, got, v)
		}
	}
	sum := samples[`fedvald_job_duration_seconds_sum{}`]
	if math.Abs(sum-99.55) > 1e-9 {
		t.Errorf("histogram sum = %g, want 99.55", sum)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]float64{1, 2, 5})
	// le is inclusive: a sample equal to a bound lands in that bound's
	// bucket, per the exposition format.
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 5, 5.1, 1e9} {
		h.Observe(v)
	}
	raw := make([]int64, len(h.counts))
	for i := range h.counts {
		raw[i] = h.counts[i].Load()
	}
	want := []int64{2, 2, 1, 2} // ≤1: {0.5, 1}; ≤2: {1.0000001, 2}; ≤5: {5}; +Inf: {5.1, 1e9}
	for i, w := range want {
		if raw[i] != w {
			t.Errorf("bucket %d count = %d, want %d (raw %v)", i, raw[i], w, raw)
		}
	}
	if h.Count() != 7 {
		t.Errorf("count = %d, want 7", h.Count())
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-12 {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
}

func TestLint(t *testing.T) {
	good := map[string]Type{
		"fedvald_jobs_submitted_total": TypeCounter,
		"fedvald_job_duration_seconds": TypeHistogram,
		"fedvald_journal_bytes":        TypeGauge,
		"fedvald_cache_hit_ratio":      TypeGauge,
		"fedvalworker_eval_seconds":    TypeHistogram,
		"fedvalworker_active_specs":    TypeGauge,
		"fedvald_fleet_wanted_workers": TypeGauge,
		"fedvald_fleet_pending_tasks":  TypeGauge,
		"fedvald_sse_subscribers":      TypeGauge,
		"fedvald_store_fingerprints":   TypeGauge,
		"fedvald_job_queue_depth_jobs": TypeGauge,
	}
	if probs := Lint(good); len(probs) != 0 {
		t.Fatalf("lint flagged conforming names: %v", probs)
	}
	bad := map[string]Type{
		"jobs_submitted_total":   TypeCounter,   // no process prefix
		"fedvald_jobs_submitted": TypeCounter,   // counter without _total
		"fedvald_job_duration":   TypeHistogram, // histogram without unit
		"fedvald_queue_depth":    TypeGauge,     // gauge without unit suffix
		"fedvald_evals_total":    TypeGauge,     // gauge masquerading as counter
	}
	probs := Lint(bad)
	if len(probs) != len(bad) {
		t.Fatalf("lint found %d problems, want %d: %v", len(probs), len(bad), probs)
	}
}

func TestRegistryTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("fedvald_x_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.NewGaugeFunc("fedvald_x_total", "x", func() float64 { return 0 })
}

// TestParseText reads back a registry's exposition and refuses the
// malformed lines another process could send.
func TestParseText(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("fedvald_jobs_completed_total", "Jobs finished.", "state", "done").Add(2)
	r.NewGaugeFunc("fedvald_journal_bytes", "Journal size.", func() float64 { return 123 })
	r.NewHistogram("fedvald_job_duration_seconds", "Job latency.", []float64{1}).Observe(0.5)
	r.NewCollector("fedvald_fleet_quarantined_workers", "Benched names.", TypeGauge, func() []Sample {
		return []Sample{{Labels: []string{"worker", "a \"b\"\\{c}\n"}, Value: 1}}
	})
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("ParseText: %v\n%s", err, sb.String())
	}
	want := map[string]float64{
		SeriesKey("fedvald_jobs_completed_total", "state", "done"): 2,
		"fedvald_journal_bytes": 123,
		SeriesKey("fedvald_job_duration_seconds_bucket", "le", "1"):                1,
		SeriesKey("fedvald_job_duration_seconds_bucket", "le", "+Inf"):             1,
		"fedvald_job_duration_seconds_sum":                                         0.5,
		"fedvald_job_duration_seconds_count":                                       1,
		SeriesKey("fedvald_fleet_quarantined_workers", "worker", "a \"b\"\\{c}\n"): 1,
	}
	if len(got) != len(want) {
		t.Errorf("parsed %d samples, want %d: %v", len(got), len(want), got)
	}
	for key, v := range want {
		if g, ok := got[key]; !ok || g != v {
			t.Errorf("%s = %v (present %v), want %v", key, g, ok, v)
		}
	}

	head := "# HELP fedvald_x_total X.\n# TYPE fedvald_x_total counter\n"
	for _, bad := range []string{
		"fedvald_x_total 1\n",                            // no HELP/TYPE
		"# HELP fedvald_x_total X.\nfedvald_x_total 1\n", // no TYPE
		head + "# TYPE fedvald_y_total summary\n",
		head + "fedvald_x_total\n",
		head + "fedvald_x_total one\n",
		head + "fedvald_x_total 1 1700000000\n",
		head + "fedvald_x_total{a=\"1\" 1\n",
		head + "fedvald_x_total{a=\"1\\x\"} 1\n",
		head + "fedvald_x_total{a=\"1\"b=\"2\"} 1\n",
		head + "fedvald_x_total{1a=\"1\"} 1\n",
		head + "fedvald_x_total{a=1} 1\n",
		head + "fedvald_x_total{a=\"1\"}1\n",
		head + "fedvald_x_total 1\nfedvald_x_total 2\n",
		head + "fedvald_x_total_count 1\n", // _count of a counter
		"# TYPE 9bad counter\n",
	} {
		if m, err := ParseText(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseText(%q) = %v, want an error", bad, m)
		}
	}
}

// FuzzParseText checks that arbitrary bytes never panic the parser, and
// that label values holding quotes, backslashes, newlines, spaces and
// braces come back exactly through WriteText and ParseText.
func FuzzParseText(f *testing.F) {
	f.Add([]byte("# HELP fedvald_x_total X.\n# TYPE fedvald_x_total counter\nfedvald_x_total{a=\"\\\"\"} 1\n"), "w\"1 {x}\\\n", 2.5)
	f.Add([]byte("fedvald_x{"), "", math.Inf(1))
	f.Add([]byte("# TYPE a histogram\n# HELP a h\na_bucket{le=\"+Inf\"} NaN\n"), "}\"", -0.0)
	f.Fuzz(func(t *testing.T, text []byte, label string, v float64) {
		_, _ = ParseText(strings.NewReader(string(text)))

		r := NewRegistry()
		samples := []Sample{
			{Labels: []string{"worker", label}, Value: v},
			{Labels: []string{"worker", label + "\n", "id", `"` + label + `\`}, Value: 1},
			{Labels: []string{"worker", "{" + label + "} "}, Value: -v},
		}
		r.NewCollector("fedvald_fleet_worker_inflight_tasks", "Help with \\ and\nnewline.", TypeGauge,
			func() []Sample { return samples })
		var sb strings.Builder
		if err := r.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		got, err := ParseText(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("ParseText of WriteText: %v\n%s", err, sb.String())
		}
		if len(got) != len(samples) {
			t.Fatalf("parsed %d samples, wrote %d:\n%s", len(got), len(samples), sb.String())
		}
		for _, s := range samples {
			key := SeriesKey("fedvald_fleet_worker_inflight_tasks", s.Labels...)
			g, ok := got[key]
			if !ok || math.Float64bits(g) != math.Float64bits(s.Value) && !(math.IsNaN(g) && math.IsNaN(s.Value)) {
				t.Errorf("%s = %v (present %v), wrote %v", key, g, ok, s.Value)
			}
		}
	})
}
