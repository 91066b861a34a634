package valserve

import (
	"encoding/binary"
	"hash/fnv"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"fedshap/internal/shapley"
)

// TestPlanTableAcrossValuers pins, for every algorithm name NewValuer
// accepts, what shapley.PlanFor and shapley.PlanExhaustive answer — the two
// questions runJob and the anytime drive ask before choosing the plan →
// prefetch → reduce path. The rows were recorded at the commit before the
// Prefetchable interface was folded into Planner (n = 6, γ = 20, K = 2,
// plan seed 3); hash is FNV-64a over the (lo, hi) words of the plan in
// order, so a reordered or shortened plan fails as loudly as a lost one.
func TestPlanTableAcrossValuers(t *testing.T) {
	const n, gamma, k, seed = 6, 20, 2, 3
	for _, row := range []struct {
		name       string
		ok         bool
		coalitions int
		hash       uint64
		exhaustive bool
	}{
		{"ipss", true, 20, 0xf94c8c6142031df2, true},
		{"ipss-rescaled", true, 20, 0xf94c8c6142031df2, true},
		{"exact", true, 64, 0xe4da7b70f43d4325, true},
		{"mc", true, 64, 0xe4da7b70f43d4325, true},
		{"perm", true, 64, 0xe4da7b70f43d4325, true},
		{"stratified-mc", true, 19, 0xe3d758645830b8a6, true},
		{"stratified-cc", true, 19, 0xe3d758645830b8a6, true},
		{"kgreedy", true, 22, 0x1222d974eb7bbb25, true},
		{"tmc", true, 3, 0xb9db96cdcb7b079e, false},
		{"gtb", true, 20, 0x17fd852072a3f6a7, true},
		{"ccshapley", true, 20, 0xb54c71ee2ef76565, true},
		{"digfl", false, 0, 0xcbf29ce484222325, false},
		{"or", false, 0, 0xcbf29ce484222325, false},
		{"lambdamr", false, 0, 0xcbf29ce484222325, false},
		{"gtg", false, 0, 0xcbf29ce484222325, false},
	} {
		alg, err := NewValuer(row.name, gamma, k)
		if err != nil {
			t.Fatalf("NewValuer(%q): %v", row.name, err)
		}
		plan, ok := shapley.PlanFor(alg, n, seed)
		h := fnv.New64a()
		var b [8]byte
		for _, s := range plan {
			lo, hi := s.Words()
			binary.LittleEndian.PutUint64(b[:], lo)
			h.Write(b[:])
			binary.LittleEndian.PutUint64(b[:], hi)
			h.Write(b[:])
		}
		exhaustive := shapley.PlanExhaustive(alg)
		if ok != row.ok || len(plan) != row.coalitions || h.Sum64() != row.hash || exhaustive != row.exhaustive {
			t.Errorf("{%q, %v, %d, %#016x, %v}, recorded {%q, %v, %d, %#016x, %v}",
				row.name, ok, len(plan), h.Sum64(), exhaustive,
				row.name, row.ok, row.coalitions, row.hash, row.exhaustive)
		}
	}
	if _, err := NewValuer("no-such-algorithm", gamma, k); err == nil {
		t.Error("NewValuer accepted an unknown name; add its row to the table above")
	}
}

// TestEstimatorMapPlanColumn checks the Plan column of ARCHITECTURE.md's
// Estimator map against what the code answers for every service name in
// it: "complete" when the plan is exhaustive, "prefix" when there is a
// plan that is not, "none" when PlanFor has no plan.
func TestEstimatorMapPlanColumn(t *testing.T) {
	doc, err := os.ReadFile("../../ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(doc), "\n## Estimator map\n")
	section, _, _ = strings.Cut(section, "\n## ")
	planCol, rows := -1, 0
	backticked := regexp.MustCompile("`([a-z-]+)`")
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(strings.ReplaceAll(line, `\|`, ""), "|") // \| is a literal bar
		if planCol < 0 {
			planCol = slices.Index(cells, " Plan ")
			continue
		}
		if !strings.HasPrefix(line, "| `") || len(cells) <= planCol {
			continue
		}
		documented, _, _ := strings.Cut(strings.TrimSpace(cells[planCol]), " ")
		for _, name := range backticked.FindAllStringSubmatch(cells[1], -1) {
			alg, err := NewValuer(name[1], 8, 2)
			if err != nil {
				t.Fatalf("Estimator map row %q: %v", name[1], err)
			}
			kind := "none"
			if _, ok := shapley.PlanFor(alg, 6, 1); ok {
				kind = "prefix"
				if shapley.PlanExhaustive(alg) {
					kind = "complete"
				}
			}
			if documented != kind {
				t.Errorf("Estimator map: %q has Plan %q, the code says %q", name[1], documented, kind)
			}
			rows++
		}
	}
	if planCol < 0 || rows == 0 {
		t.Fatalf("no Estimator map rows with a Plan column found in ARCHITECTURE.md")
	}
}
