package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"

	"fedshap/internal/obs"
)

// MaxMetricLabels is the per-registration label-cardinality ceiling:
// more label keys than this on one series multiplies scrape cardinality
// past what the dashboards and the in-memory registry are sized for.
const MaxMetricLabels = 3

// AnalyzerObsMetrics runs the repo's metric naming convention (obs.Lint —
// the same code path TestMetricNameLint exercises against the live
// registries) over every metric name registered anywhere in the source,
// at compile time: names and help strings must be compile-time constants
// (so the tool can see them), help must be non-empty, names must pass
// obs.Lint for their series type, and labels must come as balanced
// "key","value" pairs under the cardinality ceiling.
var AnalyzerObsMetrics = &Analyzer{
	Name: "obsmetrics",
	Doc:  "registered metric names pass obs.Lint and stay under the label ceiling",
	Run:  runObsMetrics,
}

// MetricProblems validates one metric registration the way the analyzer
// does: obs.Lint on the (name, type) pair plus the label ceiling.
// TestMetricNameLint shares this entry point for the live registries
// (which do not expose label counts — pass 0).
func MetricProblems(name string, typ obs.Type, labelKeys int) []string {
	problems := obs.Lint(map[string]obs.Type{name: typ})
	if labelKeys > MaxMetricLabels {
		problems = append(problems, fmt.Sprintf("%s: %d label keys exceeds the cardinality ceiling of %d", name, labelKeys, MaxMetricLabels))
	}
	return problems
}

// registrars maps obs.Registry method names to the index where variadic
// label pairs start (-1 when the method takes no static labels) and the
// registered series type ("" when the type is an argument).
var registrars = map[string]struct {
	labelStart int
	typ        obs.Type
}{
	"NewCounter":   {2, obs.TypeCounter},
	"NewGaugeFunc": {3, obs.TypeGauge},
	"NewHistogram": {3, obs.TypeHistogram},
	"NewCollector": {-1, ""},
}

func runObsMetrics(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			reg, ok := registrars[sel.Sel.Name]
			if !ok || !isRegistryRecv(pass, sel.X) || len(call.Args) < 2 {
				return true
			}
			name, ok := constString(pass, call.Args[0])
			if !ok {
				pass.Reportf(call.Args[0].Pos(), "metric name is not a compile-time constant, so fedvallint cannot lint it; use a string literal or const")
				return true
			}
			if help, ok := constString(pass, call.Args[1]); !ok {
				pass.Reportf(call.Args[1].Pos(), "help for metric %s is not a compile-time constant, so fedvallint cannot verify it; use a string literal or const", name)
			} else if help == "" {
				pass.Reportf(call.Args[1].Pos(), "metric %s has empty help text: every family needs a scrape-visible description", name)
			}
			typ := reg.typ
			if sel.Sel.Name == "NewCollector" {
				if len(call.Args) < 3 {
					return true
				}
				s, ok := constString(pass, call.Args[2])
				if !ok {
					pass.Reportf(call.Args[2].Pos(), "collector type for %s is not a compile-time constant", name)
					return true
				}
				typ = obs.Type(s)
			}
			labelKeys := 0
			if reg.labelStart >= 0 && len(call.Args) > reg.labelStart && call.Ellipsis == 0 {
				labels := len(call.Args) - reg.labelStart
				if labels%2 != 0 {
					pass.Reportf(call.Args[reg.labelStart].Pos(), "metric %s has an odd number of label arguments: labels are \"key\",\"value\" pairs", name)
				}
				labelKeys = labels / 2
			}
			for _, problem := range MetricProblems(name, typ, labelKeys) {
				pass.Reportf(call.Args[0].Pos(), "metric %s", problem)
			}
			return true
		})
	}
}

// isRegistryRecv reports whether the receiver expression is an
// obs.Registry (matched by type name, so the golden testdata can stub
// it).
func isRegistryRecv(pass *Pass, x ast.Expr) bool {
	t := pass.TypeOf(x)
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Registry"
}

// constString resolves e to its compile-time string value.
func constString(pass *Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
