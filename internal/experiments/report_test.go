package experiments

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestFmtSecs(t *testing.T) {
	cases := map[float64]string{
		1.5e6:  "1.5e+06",
		123:    "123",
		0.1234: "0.123",
		0.0001: "0.00010",
	}
	for in, want := range cases {
		if got := fmtSecs(in); got != want {
			t.Errorf("fmtSecs(%v) = %q, want %q", in, got, want)
		}
	}
	if got := fmtSecs(math.NaN()); got != "-" {
		t.Errorf("fmtSecs(NaN) = %q", got)
	}
}

func TestFmtErr(t *testing.T) {
	if got := fmtErr(0.1234, false); got != "0.123" {
		t.Errorf("fmtErr = %q", got)
	}
	if got := fmtErr(math.NaN(), false); got != "-" {
		t.Errorf("fmtErr(NaN) = %q", got)
	}
	if got := fmtErr(0, true); got != `\` {
		t.Errorf("fmtErr(NA) = %q", got)
	}
}

func TestReportRenderAlignment(t *testing.T) {
	rep := &Report{
		Title:  "t",
		Header: []string{"aaa", "b"},
		Rows:   [][]string{{"x", "longcell"}},
		Notes:  []string{"a note"},
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "== t ==") || !strings.Contains(out, "note: a note") {
		t.Errorf("render missing parts:\n%s", out)
	}
	// Separator row matches header width.
	if !strings.Contains(out, "---") {
		t.Errorf("no separator row")
	}
}

// TestTableIReadsExample1: Table I's rows are computed, not typed in, and
// read the paper's φ = (0.22, 0.32, 0.32).
func TestTableIReadsExample1(t *testing.T) {
	rep := TableI()
	want := [][]string{
		{"hospital 1", "0.220"},
		{"hospital 2", "0.320"},
		{"hospital 3", "0.320"},
	}
	if !reflect.DeepEqual(rep.Rows, want) {
		t.Fatalf("Table I rows = %v, want %v (notes %v)", rep.Rows, want, rep.Notes)
	}
}
