package loadgen

import (
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"syscall"
	"time"

	"fedshap"
	"fedshap/internal/obs"
)

// ProcessSpec is the seam between the chaos controller and the operating
// system: how to (re)launch the processes it kills. cmd/fedvalload wires
// these to the real fedvald/fedvalworker binaries; the tests wire them to
// the re-exec'd test binary. Every function must return an already
// started command.
type ProcessSpec struct {
	// StartDaemon (re)launches the chaos-target daemon on its fixed API
	// and worker-listener addresses, over the same journal and cache
	// directory as the previous life — that reuse is the whole point: the
	// relaunched daemon must recover the journal and warm the store.
	StartDaemon func() (*exec.Cmd, error)
	// StartWorker (re)launches the named fleet worker, dialing the
	// coordinator through the chaos proxy so partitions can sever it.
	StartWorker func(name string) (*exec.Cmd, error)
	// StartControl launches the independent control daemon — fresh
	// journal, fresh cache, no faults — used for the bit-identical
	// invariant. Nil skips that invariant.
	StartControl func() (*exec.Cmd, error)
}

// ChaosConfig shapes a chaos run around a load Runner.
type ChaosConfig struct {
	// Spec launches processes; Client talks to the chaos daemon (same
	// client the Runner uses).
	Spec   ProcessSpec
	Client *fedshap.ServiceClient
	// WorkerNames is the fleet roster; each name is kept alive (killed
	// workers are relaunched under the same name).
	WorkerNames []string
	// Proxy, when set, sits between the workers and the coordinator and
	// powers partition faults. Required if Partitions > 0.
	Proxy *Proxy
	// DaemonKills / WorkerKills / Partitions are the fault quotas,
	// interleaved round-robin across the run.
	DaemonKills int
	WorkerKills int
	Partitions  int
	// DiskFull / Stalls / Flaps are the resilience fault quotas. A
	// disk-full fault creates FaultFile (failing every daemon persistence
	// write — the daemon must be launched watching that path), submits a
	// canary job inside the degraded window, then removes the file and
	// waits for recovery. A stall SIGSTOPs a fleet worker past the
	// coordinator's task deadline, then SIGCONTs it. A flap kills the same
	// worker name FlapKillCount times in quick succession to trip the
	// coordinator's quarantine, then verifies the bench refuses a relaunch
	// before letting it reattach.
	DiskFull int
	Stalls   int
	Flaps    int
	// FaultFile is the persistence fault-switch path shared with the
	// daemon (required when DiskFull > 0).
	FaultFile string
	// StallFor is how long a stalled worker stays SIGSTOPped; it must
	// exceed the daemon's task deadline (default 3s).
	StallFor time.Duration
	// FlapKillCount is the kills per flap fault; it must reach the
	// coordinator's flap threshold (default 3, matching the coordinator
	// default).
	FlapKillCount int
	// ControlClient talks to the control daemon (required when
	// Spec.StartControl is set).
	ControlClient *fedshap.ServiceClient
	// SettleTimeout bounds each wait for the system to become healthy
	// again after a fault (default 60s).
	SettleTimeout time.Duration
	// Logf receives fault-by-fault progress; nil discards it.
	Logf func(format string, args ...any)
}

func (c *ChaosConfig) defaults() {
	if c.SettleTimeout <= 0 {
		c.SettleTimeout = 60 * time.Second
	}
	if c.StallFor <= 0 {
		c.StallFor = 3 * time.Second
	}
	if c.FlapKillCount <= 0 {
		c.FlapKillCount = 3
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// controller tracks the live process handles across kills.
type controller struct {
	cfg     ChaosConfig
	runner  *Runner
	daemon  *exec.Cmd
	workers map[string]*exec.Cmd
	control *exec.Cmd
	// canaries holds one pending result per disk-full fault: the job
	// submitted inside the degraded window. They queue behind the live
	// load, so their verdicts are collected at invariant time, not
	// inline (blocking the fault sequence on a full queue would let the
	// load drain and leave the later faults with an idle fleet).
	canaries []<-chan *fedshap.JobStatus
}

// RunChaos launches the daemon and fleet, drives the Runner's load
// against them while injecting the configured faults, and then checks the
// four recovery invariants the service promises:
//
//   - all-terminal: every accepted submission reached a terminal state
//     (and none failed) despite the kills;
//   - replay-zero-fresh: resubmitting each distinct request afterwards
//     costs zero fresh evaluations — the store retained every coalition
//     across daemon deaths;
//   - control-bit-identical: the recovered reports match an undisturbed
//     control daemon's reports bit for bit;
//   - redispatch-accounting: the fleet's worker-death requeue counter,
//     accumulated across daemon lives, accounts for every induced death
//     that verifiably had work in flight.
//
// Resilience fault quotas add their own invariants: deadline-enforced
// (every stall with verified in-flight work produced a task-deadline
// requeue), quarantine-accounting (every flap victim was benched and the
// bench refused a reattach), and degraded-mode-recovery (every disk-full
// flipped the daemon to memory-only operation, restored persistence
// afterwards, and the canary job admitted inside the degraded window
// reached done).
//
// The report's Chaos section records faults and verdicts; RunChaos only
// returns a non-nil error for harness failures (a violated invariant is
// data, not an error — callers decide via Report.Chaos.Violations()).
func RunChaos(ctx context.Context, r *Runner, cfg ChaosConfig) (*Report, error) {
	cfg.defaults()
	if cfg.Spec.StartDaemon == nil || cfg.Spec.StartWorker == nil {
		return nil, fmt.Errorf("loadgen: chaos needs Spec.StartDaemon and Spec.StartWorker")
	}
	if cfg.Partitions > 0 && cfg.Proxy == nil {
		return nil, fmt.Errorf("loadgen: partitions need a Proxy")
	}
	if cfg.DiskFull > 0 && cfg.FaultFile == "" {
		return nil, fmt.Errorf("loadgen: disk-full faults need a FaultFile shared with the daemon")
	}
	if (cfg.Stalls > 0 || cfg.Flaps > 0) && len(cfg.WorkerNames) == 0 {
		return nil, fmt.Errorf("loadgen: stall and flap faults target the worker fleet")
	}
	ctrl := &controller{cfg: cfg, runner: r, workers: make(map[string]*exec.Cmd)}
	defer ctrl.stopAll()

	if err := ctrl.startAll(ctx); err != nil {
		return nil, err
	}

	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	var runRep *Report
	var runErr error
	done := make(chan struct{})
	go func() {
		runRep, runErr = r.Run(runCtx)
		close(done)
	}()

	chaos := &ChaosReport{}
	if err := ctrl.injectFaults(ctx, chaos, done); err != nil {
		cancelRun()
		<-done
		return nil, err
	}

	<-done
	if runRep == nil {
		// The run failed before producing a report (harness-level failure,
		// e.g. the submission pool hit a hard rejection).
		return nil, runErr
	}
	// A timeout before quiescence still yields a report; the all-terminal
	// invariant records the violation.
	rep := runRep
	rep.Chaos = chaos
	chaos.ObservedDeathRequeues = r.scraper.total(deathRequeuesKey)
	chaos.ObservedDeadlineRequeues = r.scraper.total(deadlineRequeuesKey)
	chaos.ObservedQuarantineRejections = r.scraper.total(quarantineRejectKey)

	ctrl.checkAllTerminal(rep)
	ctrl.checkRedispatchAccounting(chaos)
	if cfg.Stalls > 0 {
		ctrl.checkDeadlineEnforced(chaos)
	}
	if cfg.Flaps > 0 {
		ctrl.checkQuarantineAccounting(chaos)
	}
	if cfg.DiskFull > 0 {
		ctrl.checkDegradedRecovery(ctx, chaos)
	}
	replayed := ctrl.checkReplayZeroFresh(ctx, r, chaos)
	ctrl.checkControlBitIdentical(ctx, r, chaos, replayed)
	return rep, nil
}

// startAll launches the daemon and the full worker roster and waits for
// the fleet to attach.
func (c *controller) startAll(ctx context.Context) error {
	d, err := c.cfg.Spec.StartDaemon()
	if err != nil {
		return fmt.Errorf("loadgen: start daemon: %w", err)
	}
	c.daemon = d
	if err := WaitHealthy(ctx, c.cfg.Client, c.cfg.SettleTimeout); err != nil {
		return err
	}
	for _, name := range c.cfg.WorkerNames {
		w, err := c.cfg.Spec.StartWorker(name)
		if err != nil {
			return fmt.Errorf("loadgen: start worker %s: %w", name, err)
		}
		c.workers[name] = w
	}
	return c.waitFleet(ctx)
}

// injectFaults fires the configured faults round-robin, each gated on a
// terminal-count milestone so they land while load is genuinely in
// flight. If the run finishes early the remaining faults fire back to
// back (they still exercise recovery — the replay/control passes come
// after).
func (c *controller) injectFaults(ctx context.Context, chaos *ChaosReport, done <-chan struct{}) error {
	seq := faultSequence(c.cfg.WorkerKills, c.cfg.Partitions, c.cfg.DaemonKills,
		c.cfg.DiskFull, c.cfg.Stalls, c.cfg.Flaps)
	total := len(c.runner.Requests())
	finished := false
	for i, fault := range seq {
		milestone := total * (i + 1) / (len(seq) + 2)
		for !finished && c.runner.TerminalCount() < milestone {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-done:
				finished = true
			case <-time.After(50 * time.Millisecond):
			}
		}
		var err error
		switch fault {
		case "worker":
			err = c.killWorker(ctx, chaos)
		case "partition":
			err = c.partition(ctx, chaos)
		case "daemon":
			err = c.killDaemon(ctx, chaos)
		case "diskfull":
			err = c.diskFull(ctx, chaos)
		case "stall":
			err = c.stallWorker(ctx, chaos)
		case "flap":
			err = c.flapWorker(ctx, chaos)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// faultSequence interleaves the quotas round-robin: worker kill,
// partition, daemon kill, disk-full, stall, flap, worker kill, ...
func faultSequence(workers, partitions, daemons, diskfulls, stalls, flaps int) []string {
	var seq []string
	for workers+partitions+daemons+diskfulls+stalls+flaps > 0 {
		if workers > 0 {
			seq = append(seq, "worker")
			workers--
		}
		if partitions > 0 {
			seq = append(seq, "partition")
			partitions--
		}
		if daemons > 0 {
			seq = append(seq, "daemon")
			daemons--
		}
		if diskfulls > 0 {
			seq = append(seq, "diskfull")
			diskfulls--
		}
		if stalls > 0 {
			seq = append(seq, "stall")
			stalls--
		}
		if flaps > 0 {
			seq = append(seq, "flap")
			flaps--
		}
	}
	return seq
}

// killWorker SIGKILLs one fleet worker — preferring one with verified
// in-flight work — and relaunches it under the same name.
func (c *controller) killWorker(ctx context.Context, chaos *ChaosReport) error {
	victim := c.cfg.WorkerNames[chaos.WorkerKills%len(c.cfg.WorkerNames)]
	inflight := false
	for _, w := range c.fleet(ctx) {
		if w.InFlight > 0 {
			victim, inflight = w.Name, true
			break
		}
	}
	proc, ok := c.workers[victim]
	if !ok {
		return fmt.Errorf("loadgen: no process handle for worker %s", victim)
	}
	c.cfg.Logf("chaos: SIGKILL worker %s (in-flight verified: %v)", victim, inflight)
	proc.Process.Kill()
	proc.Wait()
	chaos.WorkerKills++
	if inflight {
		chaos.KillsWithInflight++
	}
	w, err := c.cfg.Spec.StartWorker(victim)
	if err != nil {
		return fmt.Errorf("loadgen: relaunch worker %s: %w", victim, err)
	}
	c.workers[victim] = w
	return c.waitFleet(ctx)
}

// partition severs every worker⇄coordinator connection at once. The
// workers' retry loops heal it; the coordinator must requeue whatever the
// severed workers had in flight.
func (c *controller) partition(ctx context.Context, chaos *ChaosReport) error {
	inflight := false
	for _, w := range c.fleet(ctx) {
		if w.InFlight > 0 {
			inflight = true
			break
		}
	}
	n := c.cfg.Proxy.SeverAll()
	c.cfg.Logf("chaos: severed %d coordinator connections (in-flight verified: %v)", n, inflight)
	chaos.Partitions++
	if inflight {
		chaos.KillsWithInflight++
	}
	return c.waitFleet(ctx)
}

// killDaemon scrapes (so the dying life's counters are folded into the
// cross-life accumulation), SIGKILLs the daemon, relaunches it over the
// same journal and cache directory, and waits for recovery: API healthy
// and fleet reattached.
func (c *controller) killDaemon(ctx context.Context, chaos *ChaosReport) error {
	c.scrape(ctx)
	c.cfg.Logf("chaos: SIGKILL daemon")
	c.daemon.Process.Kill()
	c.daemon.Wait()
	chaos.DaemonKills++
	d, err := c.cfg.Spec.StartDaemon()
	if err != nil {
		return fmt.Errorf("loadgen: relaunch daemon: %w", err)
	}
	c.daemon = d
	if err := WaitHealthy(ctx, c.cfg.Client, c.cfg.SettleTimeout); err != nil {
		return err
	}
	return c.waitFleet(ctx)
}

// diskFull arms the daemon's persistence fault switch (every journal and
// store write fails while FaultFile exists), submits a canary job inside
// the degraded window, then clears the fault and waits for the daemon to
// restore persistence. What it observes — degraded gauge up, canary done,
// gauge back down — feeds the degraded-mode-recovery invariant; a daemon
// that never degrades or never recovers is an invariant violation, not a
// harness error.
func (c *controller) diskFull(ctx context.Context, chaos *ChaosReport) error {
	if err := os.WriteFile(c.cfg.FaultFile, nil, 0o644); err != nil {
		return fmt.Errorf("loadgen: arm fault file: %w", err)
	}
	defer os.Remove(c.cfg.FaultFile) // idempotent; normally removed below
	c.cfg.Logf("chaos: disk-full armed via %s", c.cfg.FaultFile)

	// The canary: a request outside the generated traffic's fingerprint
	// space, so it forces fresh evaluations (and store writes) while the
	// disk is failing. Its journal append is also what flips the daemon to
	// degraded if load writes haven't already.
	canary := c.runner.Requests()[0]
	canary.Seed = 900000 + int64(chaos.DiskFulls)
	canaryDone := make(chan *fedshap.JobStatus, 1)
	go func() {
		st, err := c.submitAndWait(ctx, c.cfg.Client, canary)
		if err != nil {
			c.cfg.Logf("chaos: degraded canary failed: %v", err)
			canaryDone <- nil
			return
		}
		canaryDone <- st
	}()

	if c.pollUntil(ctx, func() bool { return c.scrape(ctx)["fedvald_degraded"] == 1 }) {
		chaos.DegradedObserved++
		c.cfg.Logf("chaos: daemon degraded (memory-only persistence)")
	} else {
		c.cfg.Logf("chaos: daemon never reported degraded")
	}
	// The canary was accepted inside the degraded window; it drains with
	// the rest of the queue, so its terminal state is collected by
	// checkDegradedRecovery after the run.
	c.canaries = append(c.canaries, canaryDone)

	os.Remove(c.cfg.FaultFile)
	if c.pollUntil(ctx, func() bool {
		m := c.scrape(ctx)
		return m != nil && m["fedvald_degraded"] == 0
	}) {
		chaos.DegradedRecovered++
		c.cfg.Logf("chaos: daemon restored persistence")
	} else {
		c.cfg.Logf("chaos: daemon never recovered from degraded mode")
	}
	chaos.DiskFulls++
	return ctx.Err()
}

// stallWorker SIGSTOPs one fleet worker and keeps it frozen past the
// coordinator's task deadline, then SIGCONTs it. Unlike a kill, the
// worker's connection stays open — only the deadline reaper can rescue
// whatever the coordinator dispatched to it. The in-flight check happens
// AFTER the stop: a task seen on a frozen worker cannot complete, so every
// verified stall must produce a deadline requeue.
func (c *controller) stallWorker(ctx context.Context, chaos *ChaosReport) error {
	victim := c.cfg.WorkerNames[chaos.Stalls%len(c.cfg.WorkerNames)]
	proc, ok := c.workers[victim]
	if !ok {
		return fmt.Errorf("loadgen: no process handle for worker %s", victim)
	}
	if err := proc.Process.Signal(syscall.SIGSTOP); err != nil {
		return fmt.Errorf("loadgen: SIGSTOP worker %s: %w", victim, err)
	}
	// While frozen the coordinator keeps dispatching to it (the connection
	// is healthy and its capacity looks free), so under load in-flight
	// work shows up within a poll or two.
	inflight := c.pollUntil(ctx, func() bool {
		for _, w := range c.fleet(ctx) {
			if w.Name == victim && w.InFlight > 0 {
				return true
			}
		}
		return false
	}, c.cfg.StallFor/2)
	c.cfg.Logf("chaos: SIGSTOP worker %s for %s (in-flight verified: %v)", victim, c.cfg.StallFor, inflight)
	if !inflight {
		for _, w := range c.fleet(ctx) {
			c.cfg.Logf("chaos: fleet view: worker %s in-flight %d completed %d", w.Name, w.InFlight, w.Completed)
		}
	}
	chaos.Stalls++
	if inflight {
		chaos.StallsWithInflight++
	}
	select {
	case <-ctx.Done():
		proc.Process.Signal(syscall.SIGCONT)
		return ctx.Err()
	case <-time.After(c.cfg.StallFor):
	}
	if err := proc.Process.Signal(syscall.SIGCONT); err != nil {
		return fmt.Errorf("loadgen: SIGCONT worker %s: %w", victim, err)
	}
	return c.waitFleet(ctx)
}

// flapWorker kills the same worker name FlapKillCount times in quick
// succession — enough strikes inside the coordinator's flap window to
// bench it — then relaunches it and watches the bench refuse the
// handshake before the penalty expires and the worker reattaches.
func (c *controller) flapWorker(ctx context.Context, chaos *ChaosReport) error {
	victim := c.cfg.WorkerNames[chaos.Flaps%len(c.cfg.WorkerNames)]
	benchKey := obs.SeriesKey("fedvald_fleet_quarantined_workers", "worker", victim)
	onBench := func() bool { return c.scrape(ctx)[benchKey] == 1 }
	benched := false
	for i := 0; i < c.cfg.FlapKillCount && !benched; i++ {
		inflight, oldAddr := false, ""
		for _, w := range c.fleet(ctx) {
			if w.Name == victim {
				oldAddr = w.Addr
				if w.InFlight > 0 {
					inflight = true
				}
			}
		}
		proc, ok := c.workers[victim]
		if !ok {
			return fmt.Errorf("loadgen: no process handle for worker %s", victim)
		}
		c.cfg.Logf("chaos: flap kill %d/%d of worker %s (in-flight verified: %v)",
			i+1, c.cfg.FlapKillCount, victim, inflight)
		proc.Process.Kill()
		proc.Wait()
		if inflight {
			chaos.KillsWithInflight++
		}
		if i == c.cfg.FlapKillCount-1 {
			break // last strike: leave it dead so the bench is observable
		}
		w, err := c.cfg.Spec.StartWorker(victim)
		if err != nil {
			return fmt.Errorf("loadgen: relaunch worker %s: %w", victim, err)
		}
		c.workers[victim] = w
		// The kill only counts as a strike once the coordinator reaps the
		// dead connection, and the NEXT kill only counts if the relaunch
		// actually attached — a stale fleet entry for the victim's name is
		// neither, so incarnations are told apart by connection address.
		// Background disconnects (a stall, an earlier fault) may also have
		// banked strikes already, making this kill the benching one — then
		// the relaunch is being refused at the door and waiting for a full
		// fleet would deadlock. Wait for either outcome.
		c.pollUntil(ctx, func() bool {
			if onBench() {
				benched = true
				return true
			}
			fresh, stale := false, false
			for _, w := range c.fleet(ctx) {
				if w.Name != victim {
					continue
				}
				if oldAddr != "" && w.Addr == oldAddr {
					stale = true
				} else {
					fresh = true
				}
			}
			return fresh && !stale
		})
	}

	if benched || c.pollUntil(ctx, onBench) {
		chaos.QuarantinesObserved++
		c.cfg.Logf("chaos: worker %s benched by flap quarantine", victim)
	} else {
		c.cfg.Logf("chaos: worker %s never appeared on the quarantine bench", victim)
	}

	// Relaunch while benched (unless an early bench means a live worker
	// process is already dialing into the refusal): every dial must be
	// refused and counted by the coordinator until the penalty expires,
	// then the worker's own retry loop gets it back into the fleet.
	rejectionsBefore := c.runner.scraper.total(quarantineRejectKey)
	if !benched {
		w, err := c.cfg.Spec.StartWorker(victim)
		if err != nil {
			return fmt.Errorf("loadgen: relaunch worker %s: %w", victim, err)
		}
		c.workers[victim] = w
	}
	if c.pollUntil(ctx, func() bool {
		c.scrape(ctx)
		return c.runner.scraper.total(quarantineRejectKey) > rejectionsBefore
	}) {
		c.cfg.Logf("chaos: benched worker %s refused at the door", victim)
	}
	chaos.Flaps++
	return c.waitFleet(ctx)
}

// pollUntil checks cond every 50ms until it holds, an optional timeout
// (or the settle timeout) elapses, or ctx dies. It reports whether cond
// was ever observed.
func (c *controller) pollUntil(ctx context.Context, cond func() bool, timeout ...time.Duration) bool {
	limit := c.cfg.SettleTimeout
	if len(timeout) > 0 {
		limit = timeout[0]
	}
	deadline := time.Now().Add(limit)
	for {
		if cond() {
			return true
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return false
		}
		select {
		case <-ctx.Done():
			return false
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// scrape samples /metrics through the Runner's accumulating scraper, so
// every reading also feeds the counters carried across daemon lives.
func (c *controller) scrape(ctx context.Context) map[string]float64 {
	return c.runner.scraper.Scrape(ctx)
}

// fleet lists the workers attached to the chaos daemon (GET /v1/workers),
// nil when the daemon does not answer.
func (c *controller) fleet(ctx context.Context) []fedshap.WorkerInfo {
	fctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	workers, _ := c.cfg.Client.Workers(fctx)
	return workers
}

// waitFleet blocks until every configured worker is attached.
func (c *controller) waitFleet(ctx context.Context) error {
	return WaitFleet(ctx, c.cfg.Client, len(c.cfg.WorkerNames), c.cfg.SettleTimeout)
}

// checkAllTerminal: every accepted submission terminal, none failed or
// cancelled.
func (c *controller) checkAllTerminal(rep *Report) {
	ok := rep.Submitted == rep.Jobs && rep.Done == rep.Submitted
	detail := fmt.Sprintf("%d/%d submitted, %d done, %d failed, %d cancelled",
		rep.Submitted, rep.Jobs, rep.Done, rep.Failed, rep.Cancelled)
	rep.Chaos.Invariants = append(rep.Chaos.Invariants, InvariantResult{
		Name: "all-terminal", OK: ok, Detail: detail,
	})
}

// checkRedispatchAccounting: the accumulated worker-death requeue counter
// must cover every induced fault that verifiably had work in flight. (A
// requeue burst can be lost if the daemon is SIGKILLed between the
// requeue and the next scrape; the controller scrapes immediately before
// each kill to close that window.)
func (c *controller) checkRedispatchAccounting(chaos *ChaosReport) {
	ok := chaos.ObservedDeathRequeues >= int64(chaos.KillsWithInflight)
	detail := fmt.Sprintf("%d death requeues observed across daemon lives, %d induced deaths with in-flight work",
		chaos.ObservedDeathRequeues, chaos.KillsWithInflight)
	chaos.Invariants = append(chaos.Invariants, InvariantResult{
		Name: "redispatch-accounting", OK: ok, Detail: detail,
	})
}

// checkDeadlineEnforced: every stall that verifiably froze in-flight work
// must be rescued by the task-deadline reaper — the accumulated deadline
// requeue counter covers the verified stalls.
func (c *controller) checkDeadlineEnforced(chaos *ChaosReport) {
	ok := chaos.ObservedDeadlineRequeues >= int64(chaos.StallsWithInflight)
	detail := fmt.Sprintf("%d deadline requeues observed across daemon lives, %d stalls with verified in-flight work",
		chaos.ObservedDeadlineRequeues, chaos.StallsWithInflight)
	chaos.Invariants = append(chaos.Invariants, InvariantResult{
		Name: "deadline-enforced", OK: ok, Detail: detail,
	})
}

// checkQuarantineAccounting: every flap fault must have benched its
// victim, and every bench must have refused at least one reattach.
func (c *controller) checkQuarantineAccounting(chaos *ChaosReport) {
	ok := chaos.QuarantinesObserved == chaos.Flaps &&
		chaos.ObservedQuarantineRejections >= int64(chaos.Flaps)
	detail := fmt.Sprintf("%d/%d flap victims benched, %d quarantine rejections observed",
		chaos.QuarantinesObserved, chaos.Flaps, chaos.ObservedQuarantineRejections)
	chaos.Invariants = append(chaos.Invariants, InvariantResult{
		Name: "quarantine-accounting", OK: ok, Detail: detail,
	})
}

// checkDegradedRecovery: every disk-full fault must have flipped the
// daemon to degraded, completed the canary job it admitted inside the
// degraded window, and restored persistence once the fault cleared. The
// canaries queued behind the live load, so their verdicts are collected
// here, after the run drained.
func (c *controller) checkDegradedRecovery(ctx context.Context, chaos *ChaosReport) {
	for _, ch := range c.canaries {
		select {
		case st := <-ch:
			if st != nil && st.State == fedshap.JobDone {
				chaos.DegradedCanariesDone++
			}
		case <-time.After(c.cfg.SettleTimeout):
			c.cfg.Logf("chaos: degraded canary never reached a terminal state")
		case <-ctx.Done():
		}
	}
	ok := chaos.DegradedObserved == chaos.DiskFulls &&
		chaos.DegradedRecovered == chaos.DiskFulls &&
		chaos.DegradedCanariesDone == chaos.DiskFulls
	detail := fmt.Sprintf("%d disk-fulls: %d degraded flips, %d canaries done while degraded, %d recoveries",
		chaos.DiskFulls, chaos.DegradedObserved, chaos.DegradedCanariesDone, chaos.DegradedRecovered)
	chaos.Invariants = append(chaos.Invariants, InvariantResult{
		Name: "degraded-mode-recovery", OK: ok, Detail: detail,
	})
}

// checkReplayZeroFresh resubmits every distinct request of the run and
// asserts the store answers all of them warm: done, zero fresh
// evaluations. Returns the replay reports keyed by request for the
// control comparison.
func (c *controller) checkReplayZeroFresh(ctx context.Context, r *Runner, chaos *ChaosReport) map[string]*fedshap.Report {
	unique := r.UniqueRequests()
	reports := make(map[string]*fedshap.Report, len(unique))
	var fresh int64
	failures := 0
	for _, req := range unique {
		st, err := c.submitAndWait(ctx, c.cfg.Client, req)
		if err != nil || st.State != fedshap.JobDone {
			failures++
			continue
		}
		fresh += int64(st.FreshEvals)
		reports[requestKey(req)] = st.Report
	}
	ok := failures == 0 && fresh == 0
	detail := fmt.Sprintf("%d distinct requests replayed, %d fresh evals, %d failures", len(unique), fresh, failures)
	chaos.Invariants = append(chaos.Invariants, InvariantResult{
		Name: "replay-zero-fresh", OK: ok, Detail: detail,
	})
	return reports
}

// checkControlBitIdentical runs every distinct request on an undisturbed
// control daemon and compares the values bit for bit against the chaos
// daemon's replayed reports.
func (c *controller) checkControlBitIdentical(ctx context.Context, r *Runner, chaos *ChaosReport, replayed map[string]*fedshap.Report) {
	if c.cfg.Spec.StartControl == nil || c.cfg.ControlClient == nil {
		return
	}
	ctl, err := c.cfg.Spec.StartControl()
	if err != nil {
		chaos.Invariants = append(chaos.Invariants, InvariantResult{
			Name: "control-bit-identical", Detail: fmt.Sprintf("control daemon failed to start: %v", err),
		})
		return
	}
	c.control = ctl
	if err := WaitHealthy(ctx, c.cfg.ControlClient, c.cfg.SettleTimeout); err != nil {
		chaos.Invariants = append(chaos.Invariants, InvariantResult{
			Name: "control-bit-identical", Detail: err.Error(),
		})
		return
	}
	unique := r.UniqueRequests()
	mismatches, failures, compared := 0, 0, 0
	var firstDiff string
	for _, req := range unique {
		st, err := c.submitAndWait(ctx, c.cfg.ControlClient, req)
		if err != nil || st.State != fedshap.JobDone {
			failures++
			continue
		}
		chaosRep := replayed[requestKey(req)]
		if chaosRep == nil {
			continue // replay already recorded the failure
		}
		compared++
		if !bitIdentical(chaosRep.Values, st.Report.Values) {
			mismatches++
			if firstDiff == "" {
				firstDiff = fmt.Sprintf("; first diff: chaos %v vs control %v", chaosRep.Values, st.Report.Values)
			}
		}
	}
	ok := failures == 0 && mismatches == 0 && compared > 0
	detail := fmt.Sprintf("%d reports compared, %d mismatched, %d control failures%s", compared, mismatches, failures, firstDiff)
	chaos.Invariants = append(chaos.Invariants, InvariantResult{
		Name: "control-bit-identical", OK: ok, Detail: detail,
	})
}

// submitAndWait submits one request and polls it to a terminal state,
// riding out transient transport errors.
func (c *controller) submitAndWait(ctx context.Context, client *fedshap.ServiceClient, req fedshap.JobRequest) (*fedshap.JobStatus, error) {
	deadline := time.Now().Add(c.cfg.SettleTimeout)
	var st *fedshap.JobStatus
	var err error
	for {
		st, err = client.Submit(ctx, req)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("loadgen: submit: %w", err)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
	for {
		cur, err := client.Job(ctx, st.ID)
		if err == nil && cur.State.Terminal() {
			return cur, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("loadgen: job %s not terminal within %s", st.ID, c.cfg.SettleTimeout)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// WaitHealthy blocks until the daemon behind client answers its API,
// polling every 100ms with a one-second timeout per probe. It gives up with
// the last probe's error after timeout, and with ctx's error once ctx is
// done.
func WaitHealthy(ctx context.Context, client *fedshap.ServiceClient, timeout time.Duration) error {
	return poll(ctx, timeout, "daemon at "+client.BaseURL+" not healthy", func(ctx context.Context) error {
		_, err := client.Metrics(ctx)
		return err
	})
}

// WaitFleet blocks until at least n workers are attached to the
// coordinator of the daemon behind client; n <= 0 returns at once. It
// polls and gives up as WaitHealthy does.
func WaitFleet(ctx context.Context, client *fedshap.ServiceClient, n int, timeout time.Duration) error {
	if n <= 0 {
		return nil
	}
	what := fmt.Sprintf("fleet at %s did not reach %d workers", client.BaseURL, n)
	return poll(ctx, timeout, what, func(ctx context.Context) error {
		workers, err := client.Workers(ctx)
		if err == nil && len(workers) < n {
			err = fmt.Errorf("%d attached", len(workers))
		}
		return err
	})
}

// poll is WaitHealthy's and WaitFleet's loop: it runs probe until it
// returns nil, and reports what failed with the last probe's error once
// timeout has passed.
func poll(ctx context.Context, timeout time.Duration, what string, probe func(context.Context) error) error {
	deadline := time.Now().Add(timeout)
	for {
		pctx, cancel := context.WithTimeout(ctx, time.Second)
		err := probe(pctx)
		cancel()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("loadgen: %s after %s: %w", what, timeout, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// bitIdentical compares two value vectors bit for bit — the determinism
// contract is exact float equality, not tolerance.
func bitIdentical(a, b fedshap.Values) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// stopAll tears every launched process down (SIGKILL; the run is over).
func (c *controller) stopAll() {
	for _, w := range c.workers {
		if w != nil && w.Process != nil {
			w.Process.Kill()
			w.Wait()
		}
	}
	for _, d := range []*exec.Cmd{c.daemon, c.control} {
		if d != nil && d.Process != nil {
			d.Process.Kill()
			d.Wait()
		}
	}
}
