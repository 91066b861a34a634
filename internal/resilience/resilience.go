// Package resilience is the repo's dependency-free fault-handling
// toolkit: retry policies (exponential backoff with full jitter, attempt
// caps, per-attempt deadlines), a windowed failure tracker that benches
// flapping peers with exponentially growing penalties, and injectable
// fault hooks that let tests and the chaos harness fail I/O paths on
// demand. Every layer of the valuation stack threads through it — the
// daemon's degraded-mode persistence, the coordinator's worker
// quarantine, the worker's reconnect loop, and the HTTP client's
// retry-on-429 — so backoff and failure policy live in exactly one
// place instead of being re-invented per call site.
//
// The package imports only the standard library and is safe for
// concurrent use.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Policy describes a retry schedule: exponential backoff with full
// jitter (delays drawn uniformly from [0, min(Max, Initial·Factor^n)]),
// optionally bounded by an attempt cap and a per-attempt deadline. The
// zero value retries forever with 100ms→30s full-jitter backoff.
//
// Full jitter (rather than jittering around the midpoint) is
// deliberate: a fleet of workers reconnecting after a coordinator
// restart, or a burst of clients replaying 429'd submissions, must not
// re-synchronise into thundering herds.
type Policy struct {
	// Initial is the backoff ceiling for the first retry (default 100ms).
	Initial time.Duration
	// Max caps the backoff ceiling (default 30s).
	Max time.Duration
	// Factor is the per-attempt ceiling growth (default 2).
	Factor float64
	// MaxAttempts bounds total attempts, the first included; 0 retries
	// until the context is done or the error is Permanent.
	MaxAttempts int
	// AttemptTimeout, when > 0, bounds each attempt with its own
	// deadline via context.WithTimeout.
	AttemptTimeout time.Duration
	// Rand supplies jitter in [0,1); nil uses math/rand. Injectable so
	// tests get deterministic schedules.
	Rand func() float64
	// Sleep waits between attempts; nil sleeps on the context. Injectable
	// so tests run without wall-clock delays.
	Sleep func(ctx context.Context, d time.Duration) error
}

// Delay returns the jittered backoff before retry number attempt
// (0-based: the delay after the first failure is Delay(0)).
func (p Policy) Delay(attempt int) time.Duration {
	initial := p.Initial
	if initial <= 0 {
		initial = 100 * time.Millisecond
	}
	max := p.Max
	if max <= 0 {
		max = 30 * time.Second
	}
	factor := p.Factor
	if factor <= 1 {
		factor = 2
	}
	ceil := float64(initial) * math.Pow(factor, float64(attempt))
	if ceil > float64(max) || ceil <= 0 { // <= 0: float overflow
		ceil = float64(max)
	}
	r := rand.Float64
	if p.Rand != nil {
		r = p.Rand
	}
	return time.Duration(r() * ceil)
}

// Do runs fn until it succeeds, returns a Permanent error, exhausts
// MaxAttempts, or ctx is done. Between attempts it sleeps the jittered
// backoff — unless the error carries an explicit server hint
// (RetryAfterHint, e.g. an HTTP 429's Retry-After), which takes
// precedence: the server knows its own drain rate better than any
// client-side schedule. The last attempt's error is returned, unwrapped
// from any Permanent marker.
func (p Policy) Do(ctx context.Context, fn func(ctx context.Context) error) error {
	sleep := p.Sleep
	if sleep == nil {
		sleep = sleepCtx
	}
	for attempt := 0; ; attempt++ {
		err := p.runAttempt(ctx, fn)
		if err == nil {
			return nil
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			return perm.err
		}
		if p.MaxAttempts > 0 && attempt+1 >= p.MaxAttempts {
			return err
		}
		if ctx.Err() != nil {
			return err
		}
		delay := p.Delay(attempt)
		if hint, ok := retryAfterHint(err); ok && hint > 0 {
			delay = hint
		}
		if serr := sleep(ctx, delay); serr != nil {
			return err
		}
	}
}

// runAttempt executes one attempt under the per-attempt deadline.
func (p Policy) runAttempt(ctx context.Context, fn func(ctx context.Context) error) error {
	if p.AttemptTimeout > 0 {
		actx, cancel := context.WithTimeout(ctx, p.AttemptTimeout)
		defer cancel()
		return fn(actx)
	}
	return fn(ctx)
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// permanentError marks an error no retry can fix.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so Policy.Do stops retrying and returns it
// immediately — the marker for 4xx-style failures where repeating the
// call can only repeat the answer. Permanent(nil) is nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// RetryAfterHinter is implemented by errors that carry the server's own
// back-pressure signal (an HTTP 429/503 Retry-After). Policy.Do prefers
// the hint over its computed backoff.
type RetryAfterHinter interface{ RetryAfterHint() time.Duration }

// retryAfterHint extracts the innermost Retry-After hint from an error
// chain.
func retryAfterHint(err error) (time.Duration, bool) {
	for err != nil {
		if h, ok := err.(RetryAfterHinter); ok {
			return h.RetryAfterHint(), true
		}
		err = errors.Unwrap(err)
	}
	return 0, false
}

// TrackerConfig tunes a failure Tracker. The zero value of every field
// selects a default.
type TrackerConfig struct {
	// Threshold is the failure count within Window that benches a key
	// (default 3).
	Threshold int
	// Window is the sliding window failures are counted in (default 1m).
	Window time.Duration
	// BasePenalty is the first bench duration (default 5s). Each
	// subsequent bench doubles it, up to MaxPenalty.
	BasePenalty time.Duration
	// MaxPenalty caps the exponential bench growth (default 5m).
	MaxPenalty time.Duration
	// Now supplies the clock; nil uses time.Now. Injectable for tests.
	Now func() time.Time
}

func (c *TrackerConfig) fillDefaults() {
	if c.Threshold <= 0 {
		c.Threshold = 3
	}
	if c.Window <= 0 {
		c.Window = time.Minute
	}
	if c.BasePenalty <= 0 {
		c.BasePenalty = 5 * time.Second
	}
	if c.MaxPenalty <= 0 {
		c.MaxPenalty = 5 * time.Minute
	}
	if c.MaxPenalty < c.BasePenalty {
		c.MaxPenalty = c.BasePenalty
	}
}

// Tracker counts failures per key inside a sliding window and benches
// keys that flap: Threshold failures within Window earn a bench whose
// duration doubles with every repeat offence (BasePenalty, capped at
// MaxPenalty). The evalnet coordinator keys it by worker name to
// quarantine machines that crash-loop against the fleet.
type Tracker struct {
	cfg TrackerConfig

	mu      sync.Mutex
	entries map[string]*trackerEntry
}

type trackerEntry struct {
	fails        []time.Time
	benches      int
	benchedUntil time.Time
}

// NewTracker builds a failure tracker.
func NewTracker(cfg TrackerConfig) *Tracker {
	cfg.fillDefaults()
	return &Tracker{cfg: cfg, entries: make(map[string]*trackerEntry)}
}

func (t *Tracker) now() time.Time {
	if t.cfg.Now != nil {
		return t.cfg.Now()
	}
	return time.Now()
}

// pruneLocked drops failures that aged out of the window.
func (e *trackerEntry) pruneLocked(cutoff time.Time) {
	i := 0
	for i < len(e.fails) && e.fails[i].Before(cutoff) {
		i++
	}
	e.fails = e.fails[i:]
}

// Fail records one failure for key. When the failure count inside the
// window reaches the threshold, the key is benched and the failure
// window resets; the returned until is the bench expiry (zero when the
// key was not benched by this failure).
func (t *Tracker) Fail(key string) (benched bool, until time.Time) {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[key]
	if e == nil {
		e = &trackerEntry{}
		t.entries[key] = e
	}
	e.pruneLocked(now.Add(-t.cfg.Window))
	e.fails = append(e.fails, now)
	if len(e.fails) < t.cfg.Threshold {
		return false, time.Time{}
	}
	e.fails = nil
	e.benches++
	penalty := t.cfg.BasePenalty << (e.benches - 1)
	if penalty > t.cfg.MaxPenalty || penalty <= 0 { // <= 0: shift overflow
		penalty = t.cfg.MaxPenalty
	}
	e.benchedUntil = now.Add(penalty)
	return true, e.benchedUntil
}

// Benched reports whether key is currently benched and, if so, the
// remaining penalty.
func (t *Tracker) Benched(key string) (time.Duration, bool) {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[key]
	if e == nil || !e.benchedUntil.After(now) {
		return 0, false
	}
	return e.benchedUntil.Sub(now), true
}

// Strikes returns key's failure count inside the current window (0 for
// unknown keys; a bench resets it).
func (t *Tracker) Strikes(key string) int {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[key]
	if e == nil {
		return 0
	}
	e.pruneLocked(now.Add(-t.cfg.Window))
	return len(e.fails)
}

// BenchedKeys lists the keys currently serving a bench, sorted.
func (t *Tracker) BenchedKeys() []string {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []string
	for k, e := range t.entries {
		if e.benchedUntil.After(now) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Hook is an injectable fault point: code guarding a fallible operation
// calls Check before performing it, and tests or chaos controllers
// install a function that fails selected operations on demand. A nil
// *Hook and an empty Hook are both always-pass, so production call
// sites pay one atomic load. The op string names the guarded operation
// ("journal.append", "store.append"), letting one hook target a subset.
type Hook struct {
	fn atomic.Pointer[func(op string) error]
}

// Set installs the fault function (nil clears it).
func (h *Hook) Set(fn func(op string) error) {
	if h == nil {
		return
	}
	if fn == nil {
		h.fn.Store(nil)
		return
	}
	h.fn.Store(&fn)
}

// Check consults the installed fault function; nil error means proceed.
func (h *Hook) Check(op string) error {
	if h == nil {
		return nil
	}
	fn := h.fn.Load()
	if fn == nil {
		return nil
	}
	return (*fn)(op)
}

// FileHook returns a hook that fails every checked operation while a
// file exists at path — the cross-process fault switch the chaos
// harness flips to simulate a full disk on a spawned daemon: touch the
// file to degrade, remove it to heal. The stat cost is paid only on
// guarded writes.
func FileHook(path string) *Hook {
	h := &Hook{}
	h.Set(func(op string) error {
		if _, err := os.Stat(path); err == nil {
			return fmt.Errorf("resilience: induced fault on %s (fault file %s exists)", op, path)
		}
		return nil
	})
	return h
}
