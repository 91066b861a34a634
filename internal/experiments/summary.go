package experiments

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"fedshap/internal/theory"
)

// Summary distils a set of valuation results into the paper's Sec. V-E
// findings format: per problem, which algorithm was the most efficient and
// which the most effective, plus whether IPSS achieved both — the claim
// the paper's summary makes for "most setups".

// Finding is one problem's verdict.
type Finding struct {
	Problem       string
	FastestAlg    string
	FastestTime   float64
	AccuratestAlg string
	BestErr       float64
	IPSSBoth      bool
}

// Summarise scans (problem, result) pairs and produces one Finding per
// problem. Exact methods (error NaN) are excluded from both rankings.
func Summarise(problems []string, results [][]Result) []Finding {
	out := make([]Finding, 0, len(problems))
	for i, name := range problems {
		f := Finding{Problem: name, FastestTime: math.Inf(1), BestErr: math.Inf(1)}
		for _, r := range results[i] {
			if r.NotApplicable || r.RunErr != nil || math.IsNaN(r.Err) {
				continue
			}
			if r.Seconds < f.FastestTime {
				f.FastestTime = r.Seconds
				f.FastestAlg = r.Algorithm
			}
			if r.Err < f.BestErr {
				f.BestErr = r.Err
				f.AccuratestAlg = r.Algorithm
			}
		}
		f.IPSSBoth = strings.HasPrefix(f.FastestAlg, "IPSS") && strings.HasPrefix(f.AccuratestAlg, "IPSS")
		out = append(out, f)
	}
	return out
}

// SummaryReport renders findings as a report, with a closing line counting
// how often IPSS won each category — the Sec. V-E reproduction.
func SummaryReport(findings []Finding) *Report {
	rep := &Report{
		Title:  "Sec. V-E summary — per-problem winners",
		Header: []string{"problem", "fastest", "time(s)", "most accurate", "error"},
	}
	fastWins, accWins, both := 0, 0, 0
	for _, f := range findings {
		rep.Rows = append(rep.Rows, []string{
			f.Problem, f.FastestAlg, fmtSecs(f.FastestTime),
			f.AccuratestAlg, strconv.FormatFloat(f.BestErr, 'f', 3, 64),
		})
		if strings.HasPrefix(f.FastestAlg, "IPSS") {
			fastWins++
		}
		if strings.HasPrefix(f.AccuratestAlg, "IPSS") {
			accWins++
		}
		if f.IPSSBoth {
			both++
		}
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"IPSS fastest in %d/%d problems, most accurate in %d/%d, both in %d",
		fastWins, len(findings), accWins, len(findings), both))
	return rep
}

// RunSummary executes the standard suite over a set of problems and
// summarises — the one-call Sec. V-E reproduction.
func RunSummary(problems []*Problem, seed int64) *Report {
	names := make([]string, len(problems))
	results := make([][]Result, len(problems))
	for i, p := range problems {
		names[i] = p.Name
		exact, _ := ExactValues(p, seed+int64(i))
		gamma := theory.GammaForN(p.N)
		for ai, alg := range StandardSuite(gamma) {
			results[i] = append(results[i], RunAlgorithm(p, alg, exact, seed+int64(100*i+ai)))
		}
	}
	return SummaryReport(Summarise(names, results))
}
