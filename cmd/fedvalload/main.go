// Command fedvalload replays synthetic multi-tenant traffic against a
// fedvald daemon and reports throughput, queue-wait and job-latency
// percentiles — the load-level numbers `go test -bench` cannot measure.
// Traffic spreads across many problem fingerprints with mixed γ budgets
// and model types, a configurable fraction of warm resubmits, and a pool
// of SSE watchers holding live event streams.
//
// Point it at a running daemon:
//
//	fedvalload -addr http://127.0.0.1:8787 -jobs 500 -concurrency 16
//
// or let it spawn a private stack (daemon + worker fleet) to load:
//
//	fedvalload -spawn -fleet 3 -jobs 200
//
// With -chaos (implies -spawn) it becomes a fault-injection harness: mid
// load it SIGKILLs and relaunches fleet workers and the daemon itself and
// severs every coordinator connection, then asserts the service's
// recovery invariants — every submitted job reaches a terminal state,
// replaying every distinct request costs zero fresh evaluations, the
// recovered reports are bit-identical to an undisturbed control daemon's,
// and the fleet's worker-death requeue counter accounts for every induced
// death that had work in flight:
//
//	fedvalload -chaos -jobs 120 -fleet 3 -daemon-kills 1 -worker-kills 2 -partitions 1
//
// Three more fault types exercise the defense-in-depth resilience layer:
// -disk-full forces a persistence failure window (the daemon must flip to
// degraded memory-only operation, admit a canary job, and restore once
// the fault clears), -stalls SIGSTOPs a fleet worker past the task
// deadline (the reaper must requeue its frozen evaluations), and -flaps
// kills the same worker repeatedly (the quarantine must bench it and
// refuse the reattach):
//
//	fedvalload -chaos -jobs 120 -fleet 2 -disk-full 1 -stalls 1 -flaps 1
//
// The process exits 0 on success, 1 on harness errors, and 2 when a
// chaos invariant is violated. -json writes the full report. See the "Load
// testing & chaos" section of OPERATIONS.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"fedshap"
	"fedshap/internal/loadgen"
)

func main() {
	var (
		addr         = flag.String("addr", "http://127.0.0.1:8787", "target daemon base URL (ignored with -spawn/-chaos)")
		jobs         = flag.Int("jobs", 100, "total submissions to replay")
		concurrency  = flag.Int("concurrency", 8, "concurrent submitters")
		batch        = flag.Int("batch", 1, "jobs per POST /v1/jobs:batch call (1 submits singly)")
		fingerprints = flag.Int("fingerprints", 8, "distinct problem fingerprints to spread traffic across")
		warmFraction = flag.Float64("warm-fraction", 0.25, "fraction of submissions that repeat an earlier request verbatim")
		watchers     = flag.Int("watchers", 4, "SSE watcher pool size (0 disables)")
		nClients     = flag.Int("n", 4, "federation size of generated problems")
		models       = flag.String("models", "logreg", "comma-separated model mix, cycled across fingerprints")
		gammas       = flag.String("gammas", "6,12", "comma-separated γ budget mix, sampled per submission")
		data         = flag.String("data", "synthetic", "dataset family for generated problems")
		scale        = flag.String("scale", "tiny", "dataset scale for generated problems")
		seed         = flag.Int64("seed", 1, "traffic generation seed (equal seeds replay identical request sequences)")
		timeout      = flag.Duration("timeout", 10*time.Minute, "overall run deadline")
		jsonOut      = flag.String("json", "", "write the full report as JSON to this file (- for stdout)")
		spawn        = flag.Bool("spawn", false, "spawn a private daemon (+fleet) to load instead of targeting -addr")
		fedvald      = flag.String("fedvald", "fedvald", "fedvald binary for -spawn/-chaos (path or $PATH name)")
		fedvalworker = flag.String("fedvalworker", "fedvalworker", "fedvalworker binary for -spawn/-chaos")
		dir          = flag.String("dir", "", "working directory for spawned daemons (default: a temp dir, removed on exit)")
		fleet        = flag.Int("fleet", 2, "remote evaluation workers to spawn with -spawn/-chaos (0 = in-process evaluation)")
		poolWorkers  = flag.Int("pool", 4, "spawned daemon's concurrent valuation jobs (fedvald -workers)")
		queueCap     = flag.Int("queue", 256, "spawned daemon's queue capacity (fedvald -queue)")
		chaos        = flag.Bool("chaos", false, "inject faults mid-load and check recovery invariants (implies -spawn)")
		daemonKills  = flag.Int("daemon-kills", 1, "daemon SIGKILL+relaunch cycles under -chaos")
		workerKills  = flag.Int("worker-kills", 2, "fleet worker SIGKILLs under -chaos")
		partitions   = flag.Int("partitions", 1, "coordinator connection severances under -chaos")
		diskFull     = flag.Int("disk-full", 0, "persistence fault windows under -chaos (daemon must degrade to memory-only and recover)")
		stalls       = flag.Int("stalls", 0, "fleet worker SIGSTOP windows under -chaos (task deadline must rescue frozen evaluations)")
		flaps        = flag.Int("flaps", 0, "repeated-death cycles on one fleet worker under -chaos (quarantine must bench it)")
		stallFor     = flag.Duration("stall-for", 3*time.Second, "how long -stalls keeps a worker frozen")
		taskDeadline = flag.Duration("task-deadline", 0, "spawned daemon's fedvald -task-deadline (0: 1s when -stalls is set, else fedvald's default)")
	)
	flag.Parse()

	mix := loadgen.Mix{
		Data:   *data,
		Scale:  *scale,
		N:      *nClients,
		Models: splitList(*models),
		Gammas: splitInts(*gammas),
	}
	cfg := loadgen.Config{
		Jobs:         *jobs,
		Concurrency:  *concurrency,
		BatchSize:    *batch,
		Fingerprints: *fingerprints,
		WarmFraction: *warmFraction,
		Watchers:     *watchers,
		Seed:         *seed,
		Timeout:      *timeout,
		Mix:          mix,
		Logf:         logf,
	}

	rep, err := run(cfg, runOpts{
		addr: *addr, spawn: *spawn || *chaos, chaos: *chaos,
		fedvald: *fedvald, fedvalworker: *fedvalworker, dir: *dir,
		fleet: *fleet, poolWorkers: *poolWorkers, queueCap: *queueCap,
		daemonKills: *daemonKills, workerKills: *workerKills, partitions: *partitions,
		diskFull: *diskFull, stalls: *stalls, flaps: *flaps,
		stallFor: *stallFor, taskDeadline: *taskDeadline,
		timeout: *timeout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedvalload:", err)
		os.Exit(1)
	}

	fmt.Println(rep.Summary())
	if err := writeJSON(rep, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "fedvalload:", err)
		os.Exit(1)
	}
	if rep.Chaos != nil {
		if v := rep.Chaos.Violations(); len(v) > 0 {
			fmt.Fprintf(os.Stderr, "fedvalload: %d invariant violation(s)\n", len(v))
			os.Exit(2)
		}
	}
}

type runOpts struct {
	addr                  string
	spawn, chaos          bool
	fedvald, fedvalworker string
	dir                   string
	fleet                 int
	poolWorkers, queueCap int
	daemonKills           int
	workerKills           int
	partitions            int
	diskFull              int
	stalls, flaps         int
	stallFor              time.Duration
	taskDeadline          time.Duration
	timeout               time.Duration
}

func run(cfg loadgen.Config, opts runOpts) (*loadgen.Report, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opts.timeout+2*time.Minute)
	defer cancel()

	if !opts.spawn {
		cfg.Client = fedshap.NewServiceClient(opts.addr)
		r, err := loadgen.NewRunner(cfg)
		if err != nil {
			return nil, err
		}
		return r.Run(ctx)
	}

	dir := opts.dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "fedvalload-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	apiAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	workerAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	client := fedshap.NewServiceClient("http://" + apiAddr)
	cfg.Client = client

	stack := &stack{
		opts: opts, dir: dir,
		apiAddr: apiAddr, workerAddr: workerAddr,
	}

	if !opts.chaos {
		if err := stack.startPlain(ctx, client); err != nil {
			return nil, err
		}
		defer stack.stop()
		r, err := loadgen.NewRunner(cfg)
		if err != nil {
			return nil, err
		}
		return r.Run(ctx)
	}

	// Chaos: workers dial the coordinator through a severable proxy, the
	// controller owns every process, and a control daemon with fresh state
	// anchors the bit-identical check.
	if opts.fleet <= 0 {
		return nil, fmt.Errorf("-chaos needs -fleet >= 1 (worker kills and partitions target the fleet)")
	}
	proxy, err := loadgen.NewProxy("127.0.0.1:0", workerAddr)
	if err != nil {
		return nil, err
	}
	defer proxy.Close()
	controlAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	names := make([]string, opts.fleet)
	for i := range names {
		names[i] = fmt.Sprintf("chaos-w%d", i)
	}
	// Disk-full faults need a fault file shared with the chaos daemon
	// (the control daemon never sees it), and stalls need a task deadline
	// shorter than the stall window or the frozen work is never rescued.
	faultFile := ""
	if opts.diskFull > 0 {
		faultFile = filepath.Join(dir, "fault-disk-full")
	}
	if opts.stalls > 0 && stack.opts.taskDeadline == 0 {
		stack.opts.taskDeadline = time.Second
	}
	stack.faultFile = faultFile
	r, err := loadgen.NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	return loadgen.RunChaos(ctx, r, loadgen.ChaosConfig{
		Spec: loadgen.ProcessSpec{
			StartDaemon: func() (*exec.Cmd, error) {
				return stack.launchDaemon(dir, apiAddr, workerAddr)
			},
			StartWorker: func(name string) (*exec.Cmd, error) {
				return stack.launchWorker(name, proxy.Addr())
			},
			StartControl: func() (*exec.Cmd, error) {
				controlDir := filepath.Join(dir, "control")
				if err := os.MkdirAll(controlDir, 0o755); err != nil {
					return nil, err
				}
				return stack.launchControl(controlDir, controlAddr)
			},
		},
		Client:        client,
		ControlClient: fedshap.NewServiceClient("http://" + controlAddr),
		WorkerNames:   names,
		Proxy:         proxy,
		DaemonKills:   opts.daemonKills,
		WorkerKills:   opts.workerKills,
		Partitions:    opts.partitions,
		DiskFull:      opts.diskFull,
		Stalls:        opts.stalls,
		Flaps:         opts.flaps,
		FaultFile:     faultFile,
		StallFor:      opts.stallFor,
		Logf:          logf,
	})
}

// stack launches and tears down a private daemon + fleet for -spawn runs.
// Under -chaos the loadgen controller owns the processes instead and the
// stack only provides the launch recipes.
type stack struct {
	opts                runOpts
	dir                 string
	apiAddr, workerAddr string
	faultFile           string
	procs               []*exec.Cmd
}

// launchDaemon starts the daemon under load: it carries the task deadline
// and, when disk-full faults are configured, the persistence fault switch.
func (s *stack) launchDaemon(dir, apiAddr, workerAddr string) (*exec.Cmd, error) {
	args := s.daemonArgs(dir, apiAddr, workerAddr)
	if s.opts.taskDeadline > 0 && workerAddr != "" {
		args = append(args, "-task-deadline", s.opts.taskDeadline.String())
	}
	cmd := exec.Command(s.opts.fedvald, args...)
	if s.faultFile != "" {
		cmd.Env = append(os.Environ(), "FEDVALD_FAULT_FILE="+s.faultFile)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", s.opts.fedvald, err)
	}
	return cmd, nil
}

// launchControl starts the undisturbed control daemon: no fleet, no fault
// switch — it anchors the bit-identical comparison.
func (s *stack) launchControl(dir, apiAddr string) (*exec.Cmd, error) {
	cmd := exec.Command(s.opts.fedvald, s.daemonArgs(dir, apiAddr, "")...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", s.opts.fedvald, err)
	}
	return cmd, nil
}

func (s *stack) daemonArgs(dir, apiAddr, workerAddr string) []string {
	args := []string{
		"-addr", apiAddr,
		"-workers", strconv.Itoa(s.opts.poolWorkers),
		"-queue", strconv.Itoa(s.opts.queueCap),
		"-journal", filepath.Join(dir, "jobs.jsonl"),
		"-cache-dir", filepath.Join(dir, "cache"),
		"-log-level", "warn",
	}
	if workerAddr != "" {
		args = append(args, "-worker-addr", workerAddr)
	}
	return args
}

func (s *stack) launchWorker(name, coordinator string) (*exec.Cmd, error) {
	cmd := exec.Command(s.opts.fedvalworker,
		"-coordinator", coordinator,
		"-name", name,
		"-capacity", "2",
		"-retry", "200ms",
		"-log-level", "warn",
	)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", s.opts.fedvalworker, err)
	}
	return cmd, nil
}

// startPlain brings up daemon + fleet for a no-chaos spawn run and waits
// until the API answers and the fleet is attached.
func (s *stack) startPlain(ctx context.Context, client *fedshap.ServiceClient) error {
	workerAddr := s.workerAddr
	if s.opts.fleet <= 0 {
		workerAddr = ""
	}
	d, err := s.launchDaemon(s.dir, s.apiAddr, workerAddr)
	if err != nil {
		return err
	}
	s.procs = append(s.procs, d)
	const settle = 30 * time.Second
	deadline := time.Now().Add(settle)
	if err := loadgen.WaitHealthy(ctx, client, settle); err != nil {
		return err
	}
	for i := 0; i < s.opts.fleet; i++ {
		w, err := s.launchWorker(fmt.Sprintf("load-w%d", i), workerAddr)
		if err != nil {
			return err
		}
		s.procs = append(s.procs, w)
	}
	return loadgen.WaitFleet(ctx, client, s.opts.fleet, time.Until(deadline))
}

func (s *stack) stop() {
	for _, p := range s.procs {
		if p != nil && p.Process != nil {
			p.Process.Kill()
			p.Wait()
		}
	}
}

// writeJSON writes the full report to path ("-" is stdout, "" nowhere). The
// close error is checked on every path — Close flushes, so its error is a
// write error.
func writeJSON(rep *loadgen.Report, path string) error {
	switch path {
	case "":
		return nil
	case "-":
		return rep.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = rep.WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// freeAddr reserves a loopback port and releases it for a child process
// to bind. The tiny reuse race is acceptable for a load harness.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func splitInts(s string) []int {
	var out []int
	for _, part := range splitList(s) {
		n, err := strconv.Atoi(part)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fedvalload: bad integer %q in list\n", part)
			os.Exit(1)
		}
		out = append(out, n)
	}
	return out
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "[fedvalload] "+format+"\n", args...)
}
