// Command fedvalworker is a remote coalition-evaluation worker: it dials a
// fedvald coordinator (fedvald -worker-addr), registers its capacity, and
// serves federated-training evaluations for the jobs the daemon fans out.
// Datasets and training are rebuilt deterministically from each job's spec,
// so a fleet of workers produces bit-identical values to in-process
// evaluation — only faster. The daemon only sends coalitions it has not
// evaluated; a coalition requeued back to the same worker is answered from
// the worker's own per-job cache. A coordinator that refuses the attach
// (another protocol version, a quarantined name) says why, and the worker
// logs that message before it retries.
//
// Usage:
//
//	fedvalworker -coordinator 10.0.0.5:8788 -capacity 4 -name rack1-a
//
// The worker reconnects when the coordinator restarts, backing off with
// jittered exponential delays capped at -retry so a restarted or
// quarantining coordinator is not hammered by a thundering herd of
// reconnects; a connection that actually served work resets the backoff.
// It exits cleanly on SIGINT/SIGTERM. -pprof starts a diagnostics
// listener with /debug/pprof/ and a Prometheus /metrics exposing the
// worker's evaluation counts (by outcome) and latency histogram;
// -log-level and -log-format configure structured connection/spec logs
// on stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"fedshap/internal/evalnet"
	"fedshap/internal/obs"
	"fedshap/internal/resilience"
	"fedshap/internal/valserve"
)

func main() {
	var (
		coordinator = flag.String("coordinator", "127.0.0.1:8788", "coordinator worker-listener address (fedvald -worker-addr)")
		capacity    = flag.Int("capacity", 0, "concurrent coalition evaluations (0 = GOMAXPROCS)")
		name        = flag.String("name", "", "worker name in the fleet listing (default: hostname)")
		retry       = flag.Duration("retry", 2*time.Second, "reconnect backoff cap after a lost coordinator: delays grow exponentially with full jitter from 100ms up to this")
		pprofAddr   = flag.String("pprof", "", "diagnostics listener address serving /debug/pprof/ and Prometheus /metrics (empty disables)")
		logLevel    = flag.String("log-level", "info", "structured log level: debug, info, warn or error")
		logFormat   = flag.String("log-format", "text", "structured log format: text or json")
	)
	flag.Parse()

	if *name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		*name = host
	}
	cap := *capacity
	if cap <= 0 {
		cap = runtime.GOMAXPROCS(0)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	tel := valserve.NewWorkerTelemetry()
	if *pprofAddr != "" {
		dbg, err := obs.ServeDebug(*pprofAddr, tel.Registry())
		if err != nil {
			fmt.Fprintln(os.Stderr, "fedvalworker:", err)
			os.Exit(1)
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "fedvalworker: diagnostics on http://%s/debug/pprof/\n", dbg.Addr())
	}

	logger := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	w := &evalnet.Worker{
		Name:     *name,
		Capacity: cap,
		Build:    valserve.WorkerEvaluator,
		Observe:  tel.Observe,
		Logger:   logger,
	}
	fmt.Fprintf(os.Stderr, "fedvalworker: %s (capacity %d) dialling %s\n", *name, cap, *coordinator)

	// Jittered exponential backoff between reconnects: a fleet of workers
	// losing the same coordinator (restart, deploy) must not re-dial in
	// lockstep, and a worker refused by flap quarantine must not spin on
	// the handshake. A connection that lived long enough to have served
	// work resets the schedule — the next loss is a fresh incident.
	backoff := resilience.Policy{Initial: 100 * time.Millisecond, Max: *retry}
	attempt := 0
	for {
		start := time.Now()
		err := w.Dial(ctx, *coordinator)
		if ctx.Err() != nil {
			logger.Info("shutting down")
			return
		}
		if time.Since(start) > 30*time.Second {
			attempt = 0
		}
		delay := backoff.Delay(attempt)
		attempt++
		logger.Warn("coordinator connection lost; reconnecting",
			"error", err, "attempt", attempt, "backoff", delay.Round(time.Millisecond))
		select {
		case <-ctx.Done():
			logger.Info("shutting down")
			return
		case <-time.After(delay):
		}
	}
}
