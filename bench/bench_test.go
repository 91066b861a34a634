package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"fedshap/internal/valserve"
)

func TestMedianQuartilesPercentile(t *testing.T) {
	// Expected quartiles are what Python's statistics.quantiles(xs, n=4)
	// prints; the driver computes spreads with it.
	cases := []struct {
		name           string
		xs             []float64
		median, q1, q3 float64
		p50, p90, p100 float64
		wantSpreadZero bool
	}{
		{name: "empty", xs: nil, wantSpreadZero: true},
		{name: "one", xs: []float64{7}, median: 7, q1: 7, q3: 7, p50: 7, p90: 7, p100: 7, wantSpreadZero: true},
		{name: "two", xs: []float64{4, 2}, median: 3, q1: 1.5, q3: 4.5, p50: 2, p90: 4, p100: 4},
		{name: "even", xs: []float64{4, 1, 3, 2}, median: 2.5, q1: 1.25, q3: 3.75, p50: 2, p90: 4, p100: 4},
		{name: "odd", xs: []float64{5, 1, 4, 2, 3}, median: 3, q1: 1.5, q3: 4.5, p50: 3, p90: 5, p100: 5},
		{name: "ties", xs: []float64{2, 2, 2, 2, 9}, median: 2, q1: 2, q3: 5.5, p50: 2, p90: 9, p100: 9},
		{name: "ten", xs: []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, median: 5.5, q1: 2.75, q3: 8.25, p50: 5, p90: 9, p100: 10},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := median(c.xs); got != c.median {
				t.Errorf("median = %v, want %v", got, c.median)
			}
			q1, q3 := quartiles(c.xs)
			if q1 != c.q1 || q3 != c.q3 {
				t.Errorf("quartiles = %v, %v, want %v, %v", q1, q3, c.q1, c.q3)
			}
			for p, want := range map[float64]float64{0.5: c.p50, 0.9: c.p90, 1: c.p100} {
				if got := percentile(c.xs, p); got != want {
					t.Errorf("percentile(%v) = %v, want %v", p, got, want)
				}
			}
			if c.wantSpreadZero && spread(c.xs) != 0 {
				t.Errorf("spread = %v, want 0", spread(c.xs))
			}
		})
	}
	if got, want := spread([]float64{5, 1, 4, 2, 3}), 1.0; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 10, Parent: -1},          // 0
		{Name: "plan", Start: 0, End: 1, Parent: 0},          // 1
		{Name: "prefetch", Start: 1, End: 8, Parent: 0},      // 2
		{Name: "eval", Start: 1, End: 5, Parent: 2},          // 3: two pool workers
		{Name: "eval", Start: 2, End: 7, Parent: 2},          // 4: side by side
		{Name: "fl", Start: 2, End: 3, Parent: 3},            // 5: nested two deep
		{Name: "notify", Start: 9.5, End: 12, Parent: 0},     // 6: sticks out of its parent
		{Name: "stale", Start: 20, End: 21, Parent: 0},       // 7: entirely outside
		{Name: "orphan", Start: 0, End: 1, Parent: 99},       // 8: bad parent index
		{Name: "contained", Start: 3, End: 4, Parent: 2},     // 9: inside both evals
		{Name: "open", Start: 1, End: 0, Parent: 0, OpID: 1}, // 10: never closed
	}
	want := []float64{
		10 - (1 + 7 + 0.5), // op: plan, prefetch, and notify's first half
		1,
		7 - 6, // prefetch: the evals cover [1,7] once
		4 - 1, // eval 3 minus fl
		5,
		1,
		2.5,
		1,
		1,
		1,
		-1,
	}
	got := selfTimes(spans)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("self[%d] (%s) = %v, want %v", i, spans[i].Name, got[i], want[i])
		}
	}
}

func TestRecorderNilIsSilent(t *testing.T) {
	var rec *recorder
	sp := rec.root("op", 0)
	child := sp.child("x")
	child.add("y", time.Time{}, time.Time{})
	child.end()
	sp.end()
	if got := rec.snapshot(); got != nil {
		t.Fatalf("nil recorder recorded %v", got)
	}
	live := newRecorder()
	root := live.root("op", 3)
	root.child("a").end()
	root.end()
	spans := live.snapshot()
	if len(spans) != 2 || spans[1].Parent != 0 || spans[1].OpID != 3 || spans[0].End < spans[1].End {
		t.Fatalf("recorded %+v", spans)
	}
}

func TestMixedSchedule(t *testing.T) {
	const ops = 60
	vocabA, a, err := mixedSchedule(1, 2, ops)
	if err != nil {
		t.Fatal(err)
	}
	_, again, _ := mixedSchedule(1, 2, ops)
	if !reflect.DeepEqual(a, again) {
		t.Fatal("the same seed and round gave two different schedules")
	}
	fingerprint := func(j job) string {
		req := j.req
		valserve.Normalize(&req)
		return valserve.Fingerprint(req)
	}
	vocab := make(map[string]bool)
	for _, req := range vocabA {
		vocab[fingerprint(job{req: req})] = true
	}
	if len(vocab) != mixedVocabulary {
		t.Fatalf("vocabulary has %d distinct fingerprints, want %d", len(vocab), mixedVocabulary)
	}
	cold := make(map[string]bool)
	conf := 0
	for i, j := range a {
		if wantWarm := i%3 == 2; j.warm != wantWarm {
			t.Fatalf("job %d warm=%v, want exactly every third job warm", i, j.warm)
		}
		fp := fingerprint(j)
		if j.warm {
			if !vocab[fp] || j.fresh != 0 {
				t.Fatalf("warm job %d: fingerprint in vocabulary=%v, fresh=%d", i, vocab[fp], j.fresh)
			}
			continue
		}
		if vocab[fp] || cold[fp] || j.fresh == 0 {
			t.Fatalf("cold job %d reuses a fingerprint or expects no fresh evaluations", i)
		}
		cold[fp] = true
		if j.req.Confidence > 0 {
			conf++
		}
	}
	if want := len(cold) / mixedConfEvery; conf != want {
		t.Errorf("%d cold jobs ask for confidence, want %d", conf, want)
	}
	for _, other := range [][2]int64{{2, 2}, {1, 3}} {
		_, b, _ := mixedSchedule(other[0], int(other[1]), ops)
		for i, j := range b {
			if !j.warm && cold[fingerprint(j)] {
				t.Fatalf("seed %d round %d job %d shares a cold fingerprint with seed 1 round 2", other[0], other[1], i)
			}
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || seen[d.name] {
			t.Errorf("metric %q (unit %q): bad or repeated name or unit", d.name, d.unit)
		}
		seen[d.name] = true
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %q: better=%q", d.name, d.better)
		}
	}

	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(buf, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark %q / %q", i, file.Workloads[i], w.name, w.why)
		}
	}
	if len(file.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark has %d", len(file.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := file.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, benchmark %+v", i, got, d)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	if len(file.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark has %d", len(file.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := file.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %+v", i, got, d)
		}
	}
}

func TestDeriveSeedSpreads(t *testing.T) {
	seen := make(map[int64]bool)
	for seed := int64(0); seed < 4; seed++ {
		for round := 0; round < 8; round++ {
			for slot := -20; slot < 200; slot++ {
				s := deriveSeed(seed, round, slot)
				if s <= 0 || s >= 1<<53 || seen[s] {
					t.Fatalf("deriveSeed(%d,%d,%d) = %d: out of range or repeated", seed, round, slot, s)
				}
				seen[s] = true
			}
		}
	}
}

// TestSmoke runs every workload at 1 round × 4 operations, traced, and
// requires every declared metric to come out, with no failed operation.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's real set-up (~25 s)")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			tmp := t.TempDir()
			cfg := &runConfig{seed: 7, seconds: 1, rounds: 1, ops: 4, trace: true,
				tmpBase: tmp, outDir: tmp, log: io.Discard, errLog: os.Stderr}
			rep, err := collect(context.Background(), w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.attempted != 3*4 {
				t.Errorf("attempted %d, failed %d; want 12, 0", rep.attempted, rep.failed)
			}
			for _, trace := range []bool{false, true} {
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				res := rep.result(trace)
				if len(res.Metrics) != len(defs) {
					t.Errorf("trace=%v: %d metrics, want %d", trace, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.name]
					if !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("trace=%v: metric %s = %+v (present=%v)", trace, d.name, v, ok)
					}
					if !trace && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.name, v.Value)
					}
				}
			}
			if _, err := os.Stat(tmp + "/trace-" + w.name + ".json"); err != nil {
				t.Error(err)
			}
			if left, _ := os.ReadDir(tmp); len(left) != 1 {
				t.Errorf("scratch not cleaned: %d entries left", len(left))
			}
		})
	}
}
