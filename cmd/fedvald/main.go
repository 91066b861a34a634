// Command fedvald is the valuation job daemon: it serves the fedshap
// valuation service over HTTP, executing jobs on a bounded worker pool with
// a persistent utility cache so resubmitted and follow-up jobs reuse every
// coalition already trained.
//
// Usage:
//
//	fedvald -addr 127.0.0.1:8787 -cache-dir fedval-cache -workers 2
//
// With -journal set (the default), the daemon keeps a durable job log
// beside the utility cache: on restart, completed jobs reload their
// reports and interrupted jobs are requeued, starting warm from the
// cache so already-trained coalitions cost nothing. -job-ttl expires
// finished jobs after a retention window. See OPERATIONS.md at the repo
// root for the full runbook.
//
// With -worker-addr set, the daemon also accepts a fleet of remote
// evaluation workers (cmd/fedvalworker) and fans each job's coalition
// evaluations out across them; jobs evaluate in-process while no workers
// are attached. The coordinator schedules adaptively — workers are picked
// by observed evaluation latency, stragglers are speculatively
// re-dispatched near job end (-speculate). Workers attach with
// POST /v1/fleet/attach on that listener and stream JSON lines both ways;
// every frame a worker sends is read under a size cap. The worker listener
// is unauthenticated — anything that can reach it can register and return
// utilities — so bind it to a trusted network only:
//
//	fedvald -addr 127.0.0.1:8787 -worker-addr 10.0.0.5:8788
//
// GET /metrics exposes queue depth, cache hit ratio, journal size and the
// fleet's per-worker scheduler state for dashboards and alerting — as JSON
// by default, or Prometheus text exposition with Accept: text/plain (or
// ?format=prometheus). -pprof starts a separate diagnostics listener with
// /debug/pprof/ and the same Prometheus /metrics; -log-level and
// -log-format configure structured job-lifecycle logs on stderr. See the
// Monitoring section of OPERATIONS.md.
//
// Submit and track jobs with `fedval -server http://127.0.0.1:8787 ...` or
// plain HTTP:
//
//	curl -X POST localhost:8787/v1/jobs -d '{"data":"femnist","model":"mlp","n":6,"algorithm":"ipss"}'
//	curl localhost:8787/v1/jobs/<id>
//	curl -X DELETE localhost:8787/v1/jobs/<id>
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fedshap/internal/evalnet"
	"fedshap/internal/obs"
	"fedshap/internal/resilience"
	"fedshap/internal/valserve"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8787", "listen address")
		workers      = flag.Int("workers", 2, "concurrent valuation jobs")
		evalWorkers  = flag.Int("eval-workers", 0, "concurrent coalition evaluations per job (0 = GOMAXPROCS)")
		queueCap     = flag.Int("queue", 64, "pending-job queue capacity")
		cacheDir     = flag.String("cache-dir", "fedval-cache", "persistent utility cache directory (empty disables persistence)")
		journal      = flag.String("journal", "fedval-jobs.jsonl", "durable job journal file: restart recovery replays it (empty disables durability)")
		jobTTL       = flag.Duration("job-ttl", 0, "expire finished jobs this long after completion, e.g. 24h (0 keeps them forever)")
		workerAddr   = flag.String("worker-addr", "", "listen address for remote evaluation workers (fedvalworker); empty disables the fleet")
		speculate    = flag.Bool("speculate", true, "speculatively re-dispatch stragglers' in-flight coalitions to idle workers near job end (first result wins; values and budgets unchanged)")
		taskDeadline = flag.Duration("task-deadline", 0, "requeue a fleet evaluation unanswered this long, independent of the straggler scan — rescues tasks on stalled workers whose connection stays open (0 disables)")
		admitMark    = flag.Float64("admit-watermark", 0, "fraction of -queue at which submissions are rejected (429), keeping headroom for recovery requeues; 0 or 1 admits to full capacity")
		compactEvery = flag.Duration("compact-every", 0, "background store+journal compaction interval, e.g. 1h (0 compacts only at startup and shutdown; requires exclusive ownership of the cache directory)")
		sseHeartbeat = flag.Duration("sse-heartbeat", 15*time.Second, "idle heartbeat interval on SSE event streams so proxies keep them open (negative disables)")
		pprofAddr    = flag.String("pprof", "", "diagnostics listener address serving /debug/pprof/ and Prometheus /metrics, kept off the API port (empty disables)")
		logLevel     = flag.String("log-level", "info", "structured log level: debug, info, warn or error (debug includes per-evaluation job progress)")
		logFormat    = flag.String("log-format", "text", "structured log format: text or json")
	)
	flag.Parse()

	logger := obs.NewLogger(os.Stderr, *logLevel, *logFormat)

	var coord *evalnet.Coordinator
	if *workerAddr != "" {
		wln, err := net.Listen("tcp", *workerAddr)
		if err != nil {
			fatal(err)
		}
		coord = evalnet.NewCoordinatorWith(evalnet.SchedulerConfig{
			DisableSpeculation: !*speculate,
			TaskDeadline:       *taskDeadline,
			Logger:             logger,
		})
		go func() { _ = coord.Serve(wln) }()
		fmt.Fprintf(os.Stderr, "fedvald: accepting evaluation workers on %s\n", wln.Addr())
	}

	// FEDVALD_FAULT_FILE arms the persistence fault switch: while a file
	// exists at the named path, every journal and store write fails, so
	// chaos tooling (and operators rehearsing the runbook) can force
	// degraded, memory-only operation without actually filling a disk.
	var fault *resilience.Hook
	if path := os.Getenv("FEDVALD_FAULT_FILE"); path != "" {
		fault = resilience.FileHook(path)
		fmt.Fprintf(os.Stderr, "fedvald: persistence fault switch armed on %s\n", path)
	}

	mgr, err := valserve.NewManager(valserve.Config{
		Workers:        *workers,
		EvalWorkers:    *evalWorkers,
		QueueCap:       *queueCap,
		AdmitWatermark: *admitMark,
		CacheDir:       *cacheDir,
		JournalPath:    *journal,
		JobTTL:         *jobTTL,
		CompactEvery:   *compactEvery,
		SSEHeartbeat:   *sseHeartbeat,
		Coordinator:    coord,
		Fault:          fault,
		Logger:         logger,
	})
	if err != nil {
		fatal(err)
	}

	if *pprofAddr != "" {
		dbg, err := obs.ServeDebug(*pprofAddr, mgr.Registry())
		if err != nil {
			fatal(err)
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "fedvald: diagnostics on http://%s/debug/pprof/\n", dbg.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	srv := &http.Server{Handler: valserve.NewHandler(mgr), ReadHeaderTimeout: evalnet.ReadHeaderTimeout}
	fmt.Fprintf(os.Stderr, "fedvald: listening on http://%s (cache: %s, journal: %s)\n",
		ln.Addr(), cacheDesc(*cacheDir), cacheDesc(*journal))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "fedvald: shutting down")
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Shutdown(shutdownCtx)
	if err := mgr.Close(); err != nil {
		fatal(err)
	}
	if coord != nil {
		_ = coord.Close()
	}
}

func cacheDesc(dir string) string {
	if dir == "" {
		return "disabled"
	}
	return dir
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fedvald:", err)
	os.Exit(1)
}
