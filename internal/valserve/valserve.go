// Package valserve is the valuation job service behind the fedvald daemon:
// a bounded worker pool executing valuation jobs (dataset family + model +
// federation size + algorithm, mirroring the fedval CLI) with cooperative
// cancellation, live progress against the sampling budget γ, and a
// persistent sharded utility cache keyed by problem fingerprint so
// resubmitted and follow-up jobs start warm.
//
// Utilities are the expensive asset — each is a full federated training
// run — so the service's whole design centres on never evaluating a
// coalition twice: the in-memory cache is sharded for the evaluation pool,
// the disk store survives the process (and is compacted on shutdown), and
// budget accounting (fresh evaluations) distinguishes new work from reuse.
//
// The service is durable: a Journal records every submission, state
// transition, progress checkpoint and final report as append-only JSONL.
// On restart the Manager replays it — completed jobs reload their reports
// verbatim, interrupted jobs are requeued and start warm from the utility
// store (coalitions evaluated before the crash cost nothing), and
// cancelled jobs stay terminal. A TTL sweep expires old jobs and compacts
// the journal. The same transition events feed per-job subscribers
// (Manager.Watch), which the HTTP layer exposes as Server-Sent Events on
// GET /v1/jobs/{id}/events.
//
// With an internal/evalnet coordinator configured, the service also scales
// one job's evaluations *out*: coalition training fans across a fleet of
// remote worker daemons (cmd/fedvalworker) through the oracle's evaluation
// seam, falling back to in-process evaluation while no workers are
// attached. See ARCHITECTURE.md at the repo root for the full layer map
// and OPERATIONS.md for the operator runbook.
package valserve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"fedshap"
	"fedshap/internal/combin"
	"fedshap/internal/dataset"
	"fedshap/internal/evalnet"
	"fedshap/internal/experiments"
	"fedshap/internal/shapley"
	"fedshap/internal/theory"
)

// Normalize fills a request's defaulted fields in place (dataset family,
// model, scale, seed, synthetic setup, budget), so that equal jobs have
// equal wire forms and equal fingerprints.
func Normalize(req *fedshap.JobRequest) {
	req.Data = strings.ToLower(strings.TrimSpace(req.Data))
	req.Model = strings.ToLower(strings.TrimSpace(req.Model))
	req.Algorithm = strings.ToLower(strings.TrimSpace(req.Algorithm))
	req.Scale = strings.ToLower(strings.TrimSpace(req.Scale))
	req.Setup = strings.ToLower(strings.TrimSpace(req.Setup))
	if req.Data == "" {
		req.Data = "femnist"
	}
	if req.Model == "" {
		req.Model = "mlp"
	}
	if req.Algorithm == "" {
		req.Algorithm = "ipss"
	}
	if req.Scale == "" {
		req.Scale = "small"
	}
	if req.Data == "synthetic" && req.Setup == "" {
		req.Setup = string(experiments.SameSizeSameDist)
	}
	if req.Data != "synthetic" {
		req.Setup = ""
		req.Noise = 0
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	if req.Gamma == 0 {
		req.Gamma = theory.GammaForN(req.N)
	}
	if req.K == 0 {
		req.K = 2
	}
	// A version vector of all zeros is the base problem: canonicalise it
	// to nil so it fingerprints (and compares) identically to a request
	// that never mentioned versions.
	for len(req.Versions) > 0 && req.Versions[len(req.Versions)-1] == 0 {
		req.Versions = req.Versions[:len(req.Versions)-1]
	}
	if len(req.Versions) == 0 {
		req.Versions = nil
	}
}

// Fingerprint derives the persistent-cache key of a request's underlying
// valuation problem. Only problem-defining fields participate: the
// algorithm, its budget and probe depth are properties of the sampler, not
// of the utility function, so an IPSS job warms a later exact job on the
// same federation. Normalize first.
func Fingerprint(req fedshap.JobRequest) string {
	canon := fmt.Sprintf("v1|data=%s|setup=%s|noise=%g|model=%s|n=%d|scale=%s|seed=%d",
		req.Data, req.Setup, req.Noise, req.Model, req.N, req.Scale, req.Seed)
	// Per-client dataset versions change the utility function, so they are
	// problem-defining. The base vector (all zeros) is normalised away and
	// keeps the historical canonical form — and therefore the cache
	// contents — of version-less requests.
	if len(req.Versions) > 0 {
		canon += "|vers="
		for i, v := range req.Versions {
			if i > 0 {
				canon += ","
			}
			canon += fmt.Sprint(v)
		}
	}
	sum := sha256.Sum256([]byte(canon))
	return hex.EncodeToString(sum[:16])
}

// ParseModel maps a wire model name to the experiments model family.
func ParseModel(s string) (experiments.ModelKind, error) {
	switch strings.ToLower(s) {
	case "mlp":
		return experiments.MLP, nil
	case "cnn":
		return experiments.CNN, nil
	case "xgb":
		return experiments.XGB, nil
	case "logreg":
		return experiments.LogReg, nil
	case "deepmlp":
		return experiments.DeepMLP, nil
	default:
		return "", fmt.Errorf("unknown model %q", s)
	}
}

// ParseScale maps a wire scale name to the experiments substrate scale.
func ParseScale(s string) (experiments.Scale, error) {
	switch strings.ToLower(s) {
	case "", "small":
		return experiments.Small(), nil
	case "tiny":
		return experiments.Tiny(), nil
	default:
		return experiments.Scale{}, fmt.Errorf("unknown scale %q", s)
	}
}

// NewValuer builds the valuation algorithm named by a request (the same
// vocabulary as the fedval -alg flag).
func NewValuer(name string, gamma, k int) (shapley.Valuer, error) {
	switch strings.ToLower(name) {
	case "ipss":
		return shapley.NewIPSS(gamma), nil
	case "ipss-rescaled":
		return &shapley.IPSS{Gamma: gamma, RescaleSampledStratum: true}, nil
	case "exact", "mc":
		return shapley.ExactMC{}, nil
	case "perm":
		return shapley.ExactPerm{}, nil
	case "stratified-mc":
		return shapley.NewStratified(shapley.MC, gamma), nil
	case "stratified-cc":
		return shapley.NewStratified(shapley.CC, gamma), nil
	case "kgreedy":
		return &shapley.KGreedy{K: k}, nil
	case "tmc":
		return shapley.NewTMC(gamma), nil
	case "gtb":
		return shapley.NewGTB(gamma), nil
	case "ccshapley":
		return shapley.NewCCShapley(gamma), nil
	case "digfl":
		return shapley.DIGFL{}, nil
	case "or":
		return shapley.OR{}, nil
	case "lambdamr":
		return &shapley.LambdaMR{}, nil
	case "gtg":
		return shapley.GTGShapley{}, nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q", name)
	}
}

// maxExactN bounds how many coalitions the daemon admits one job to
// evaluate: 2^maxExactN, the power set at n = maxExactN. Beyond it the
// trainings are infeasible for a service, and the plan alone outgrows
// memory before the first one starts.
const maxExactN = 25

// budgetFor resolves how many coalitions a job may evaluate, the progress
// denominator it reports against: 2ⁿ for the exact family, C(n, ≤K) for
// kgreedy (every coalition of at most K clients, whatever γ is), what the
// reconstruction baselines evaluate over the scale's rounds (2ⁿ for or,
// rounds × 2ⁿ for lambdamr, at most rounds × max(8, 2n) × n for gtg's
// truncated walks, rounds × (n + 1) for digfl), and the sampling budget γ
// otherwise. A count above the admission bound saturates just past it, so
// 2ⁿ cannot overflow.
func budgetFor(req fedshap.JobRequest) int {
	const over = 1<<maxExactN + 1
	sc, _ := ParseScale(req.Scale) // an unknown scale counts no rounds
	switch alg := strings.ToLower(req.Algorithm); alg {
	case "exact", "mc", "perm", "or", "lambdamr":
		if req.N > maxExactN {
			return over
		}
		if alg == "lambdamr" {
			return min(sc.Rounds<<req.N, over)
		}
		return 1 << req.N
	case "kgreedy":
		var c float64
		for k := 0; k <= min(max(req.K, 1), req.N); k++ {
			c += combin.Binomial(req.N, k)
		}
		return int(min(c, over))
	case "gtg":
		return sc.Rounds * max(8, 2*req.N) * req.N
	case "digfl":
		return sc.Rounds * (req.N + 1)
	}
	return req.Gamma
}

// ValidateRequest checks a normalized request without building datasets.
// When lenientData is true the dataset/model vocabulary is not enforced
// (managers with an injected problem builder accept arbitrary families).
func ValidateRequest(req fedshap.JobRequest, lenientData bool) error {
	if req.N < 2 || req.N > 127 {
		return fmt.Errorf("n=%d out of range [2,127]", req.N)
	}
	alg, err := NewValuer(req.Algorithm, req.Gamma, req.K)
	if err != nil {
		return err
	}
	if budgetFor(req) > 1<<maxExactN {
		return fmt.Errorf("algorithm %q at n=%d may evaluate more than 2^%d coalitions, the service limit",
			req.Algorithm, req.N, maxExactN)
	}
	if req.Gamma < 0 {
		return fmt.Errorf("gamma=%d must be non-negative", req.Gamma)
	}
	if req.DeadlineSeconds < 0 || math.IsNaN(req.DeadlineSeconds) || math.IsInf(req.DeadlineSeconds, 0) {
		return fmt.Errorf("deadline_seconds=%g must be a non-negative finite number; 0 disables the deadline", req.DeadlineSeconds)
	}
	if req.Confidence < 0 || req.Confidence >= 1 {
		return fmt.Errorf("confidence=%g out of range [0,1); 0 disables anytime tracking", req.Confidence)
	}
	if req.RankStop {
		if req.Confidence == 0 {
			return fmt.Errorf("rank_stop requires confidence in (0,1)")
		}
		if !shapley.PlanExhaustive(alg) {
			return fmt.Errorf("rank_stop requires an algorithm with a complete evaluation plan; %q exposes only a partial or utility-dependent plan", req.Algorithm)
		}
	}
	if len(req.Versions) > 0 {
		// Normalize trims trailing zeros, so a canonical vector may be
		// shorter than n — clients past its end are at version 0.
		if len(req.Versions) > req.N {
			return fmt.Errorf("versions has %d entries for n=%d clients", len(req.Versions), req.N)
		}
		for i, v := range req.Versions {
			if v < 0 {
				return fmt.Errorf("versions[%d]=%d must be non-negative", i, v)
			}
		}
	}
	if lenientData {
		return nil
	}
	if _, err := ParseScale(req.Scale); err != nil {
		return err
	}
	if _, err := ParseModel(req.Model); err != nil {
		return err
	}
	switch req.Data {
	case "femnist", "adult":
	case "synthetic":
		valid := false
		for _, s := range experiments.AllSyntheticSetups() {
			if req.Setup == string(s) {
				valid = true
			}
		}
		if !valid {
			return fmt.Errorf("unknown synthetic setup %q", req.Setup)
		}
	default:
		return fmt.Errorf("unknown dataset %q (the service accepts femnist | adult | synthetic)", req.Data)
	}
	return nil
}

// WorkerEvaluator is the standard problem builder for a remote
// evaluation worker (cmd/fedvalworker): it rebuilds the spec's valuation
// problem from the normalized request — dataset generation and training are
// deterministic per seed, so the worker's utilities are bit-identical to
// the coordinator's — and evaluates through a fresh per-spec oracle, so
// coalitions the coordinator retries after a fleet change are served from
// the worker's own cache instead of retrained.
func WorkerEvaluator(spec evalnet.ProblemSpec) (evalnet.Evaluator, error) {
	req := spec.Request
	Normalize(&req)
	p, err := BuildProblem(req)
	if err != nil {
		return evalnet.Evaluator{}, err
	}
	oracle := p.Oracle()
	return evalnet.Evaluator{Eval: oracle.U, Cached: oracle.Cached}, nil
}

// WorkerEvaluatorWith returns WorkerEvaluator; its argument is ignored.
//
// Deprecated: use WorkerEvaluator.
func WorkerEvaluatorWith(int) func(evalnet.ProblemSpec) (evalnet.Evaluator, error) {
	return WorkerEvaluator
}

// BuildProblem constructs the valuation problem for a normalized request
// using the experiments constructors — the same problems the paper's
// tables are built from.
func BuildProblem(req fedshap.JobRequest) (*experiments.Problem, error) {
	sc, err := ParseScale(req.Scale)
	if err != nil {
		return nil, err
	}
	kind, err := ParseModel(req.Model)
	if err != nil {
		return nil, err
	}
	var p *experiments.Problem
	switch req.Data {
	case "femnist":
		p = experiments.NewFEMNISTProblem(req.N, kind, sc, req.Seed)
	case "adult":
		p = experiments.NewAdultProblem(req.N, kind, sc, req.Seed)
	case "synthetic":
		p = experiments.NewSyntheticProblem(experiments.SyntheticSetup(req.Setup), req.N, kind, sc, req.Noise, req.Seed)
	default:
		return nil, fmt.Errorf("unknown dataset %q", req.Data)
	}
	applyVersions(p, req)
	return p, nil
}

// problemName is the Name BuildProblem gives req's problem, known without
// building it; "" for a dataset BuildProblem does not know.
func problemName(req fedshap.JobRequest) string {
	kind, _ := ParseModel(req.Model)
	switch req.Data {
	case "femnist":
		return experiments.FEMNISTName(req.N, kind)
	case "adult":
		return experiments.AdultName(req.N, kind)
	case "synthetic":
		return experiments.SyntheticName(experiments.SyntheticSetup(req.Setup), req.N, kind)
	}
	return ""
}

// versionNoiseScale is the feature perturbation applied per client dataset
// version step — large enough to move the utility function, small enough
// that a revalued federation stays a perturbation of the base problem.
const versionNoiseScale = 0.05

// applyVersions perturbs each client dataset whose version is non-zero:
// version v replaces client i's data with a clone of the base dataset
// carrying feature noise seeded deterministically from (seed, i, v).
// Deterministic per (seed, client, version) means revaluation jobs rebuild
// bit-identical utility functions on every node — the worker fleet and
// the daemon agree on every coalition, and the fingerprint store stays
// coherent across restarts. Versions are not cumulative: v=2 is one
// perturbation with the v=2 stream, not two stacked perturbations, so any
// version is reachable directly.
func applyVersions(p *experiments.Problem, req fedshap.JobRequest) {
	if p == nil || p.Spec == nil || len(req.Versions) == 0 {
		return
	}
	for i, v := range req.Versions {
		if v <= 0 || i >= len(p.Spec.Clients) || p.Spec.Clients[i] == nil {
			continue
		}
		d := p.Spec.Clients[i].Clone()
		rng := rand.New(rand.NewSource(req.Seed ^ (int64(i)+1)*1_000_003 ^ int64(v)*8191))
		dataset.AddFeatureNoise(d, versionNoiseScale, rng)
		p.Spec.Clients[i] = d
	}
}
