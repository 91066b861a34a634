package resilience

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestDelayFullJitterBounds(t *testing.T) {
	p := Policy{Initial: 100 * time.Millisecond, Max: time.Second, Factor: 2}
	for attempt := 0; attempt < 20; attempt++ {
		ceil := 100 * time.Millisecond << attempt
		if ceil > time.Second || ceil <= 0 {
			ceil = time.Second
		}
		for i := 0; i < 50; i++ {
			d := p.Delay(attempt)
			if d < 0 || d >= ceil {
				t.Fatalf("attempt %d: delay %v outside [0, %v)", attempt, d, ceil)
			}
		}
	}
}

func TestDelayDeterministicWithInjectedRand(t *testing.T) {
	p := Policy{Initial: 100 * time.Millisecond, Max: 10 * time.Second, Rand: func() float64 { return 0.5 }}
	want := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond}
	for i, w := range want {
		if got := p.Delay(i); got != w {
			t.Fatalf("Delay(%d) = %v, want %v", i, got, w)
		}
	}
	// Ceiling saturates at Max.
	if got := p.Delay(40); got != 5*time.Second {
		t.Fatalf("Delay(40) = %v, want %v", got, 5*time.Second)
	}
}

// fastPolicy retries without wall-clock sleeps, recording requested delays.
func fastPolicy(maxAttempts int, delays *[]time.Duration) Policy {
	return Policy{
		Initial:     time.Millisecond,
		Max:         time.Second,
		MaxAttempts: maxAttempts,
		Sleep: func(ctx context.Context, d time.Duration) error {
			if delays != nil {
				*delays = append(*delays, d)
			}
			return ctx.Err()
		},
	}
}

func TestDoRetriesUntilSuccess(t *testing.T) {
	p := fastPolicy(0, nil)
	calls := 0
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		if calls < 4 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 4 {
		t.Fatalf("err=%v calls=%d, want nil/4", err, calls)
	}
}

func TestDoMaxAttempts(t *testing.T) {
	p := fastPolicy(3, nil)
	calls := 0
	boom := errors.New("boom")
	err := p.Do(context.Background(), func(context.Context) error { calls++; return boom })
	if !errors.Is(err, boom) || calls != 3 {
		t.Fatalf("err=%v calls=%d, want boom/3", err, calls)
	}
}

func TestDoPermanentStopsImmediately(t *testing.T) {
	p := fastPolicy(0, nil)
	calls := 0
	boom := errors.New("bad request")
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		return Permanent(fmt.Errorf("wrapped: %w", boom))
	})
	if calls != 1 {
		t.Fatalf("calls=%d, want 1", calls)
	}
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err=%v, want wrapped boom", err)
	}
}

func TestDoContextCancelStops(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{Initial: time.Millisecond, Sleep: func(ctx context.Context, d time.Duration) error {
		cancel()
		return ctx.Err()
	}}
	boom := errors.New("transient")
	err := p.Do(ctx, func(context.Context) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err=%v, want the attempt error back", err)
	}
}

type hintedErr struct{ after time.Duration }

func (e hintedErr) Error() string                 { return "throttled" }
func (e hintedErr) RetryAfterHint() time.Duration { return e.after }

func TestDoHonorsRetryAfterHint(t *testing.T) {
	var delays []time.Duration
	p := fastPolicy(3, &delays)
	calls := 0
	_ = p.Do(context.Background(), func(context.Context) error {
		calls++
		return fmt.Errorf("submit: %w", hintedErr{after: 7 * time.Second})
	})
	if calls != 3 {
		t.Fatalf("calls=%d, want 3", calls)
	}
	for i, d := range delays {
		if d != 7*time.Second {
			t.Fatalf("delay[%d]=%v, want the 7s server hint", i, d)
		}
	}
}

func TestDoAttemptTimeout(t *testing.T) {
	p := Policy{MaxAttempts: 2, AttemptTimeout: 10 * time.Millisecond,
		Sleep: func(ctx context.Context, d time.Duration) error { return nil }}
	calls := 0
	err := p.Do(context.Background(), func(ctx context.Context) error {
		calls++
		<-ctx.Done()
		return ctx.Err()
	})
	if !errors.Is(err, context.DeadlineExceeded) || calls != 2 {
		t.Fatalf("err=%v calls=%d, want deadline/2", err, calls)
	}
}

func TestTrackerBenchAndExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	tr := NewTracker(TrackerConfig{
		Threshold:   3,
		Window:      time.Minute,
		BasePenalty: 10 * time.Second,
		MaxPenalty:  40 * time.Second,
		Now:         func() time.Time { return now },
	})

	for i := 0; i < 2; i++ {
		if benched, _ := tr.Fail("w1"); benched {
			t.Fatalf("benched after %d strikes", i+1)
		}
	}
	if got := tr.Strikes("w1"); got != 2 {
		t.Fatalf("strikes=%d, want 2", got)
	}
	benched, until := tr.Fail("w1")
	if !benched || until != now.Add(10*time.Second) {
		t.Fatalf("third strike: benched=%v until=%v", benched, until)
	}
	if rem, ok := tr.Benched("w1"); !ok || rem != 10*time.Second {
		t.Fatalf("Benched = %v,%v", rem, ok)
	}
	if keys := tr.BenchedKeys(); len(keys) != 1 || keys[0] != "w1" {
		t.Fatalf("BenchedKeys = %v", keys)
	}
	// Bench expires with time; an unrelated key is untouched.
	now = now.Add(11 * time.Second)
	if _, ok := tr.Benched("w1"); ok {
		t.Fatal("still benched past expiry")
	}
	if _, ok := tr.Benched("w2"); ok {
		t.Fatal("unknown key benched")
	}

	// Second offence doubles the penalty; the cap bounds growth.
	for i := 0; i < 3; i++ {
		benched, until = tr.Fail("w1")
	}
	if !benched || until != now.Add(20*time.Second) {
		t.Fatalf("second bench until=%v, want +20s", until)
	}
	now = now.Add(21 * time.Second)
	for i := 0; i < 3; i++ {
		benched, until = tr.Fail("w1")
	}
	if !benched || until != now.Add(40*time.Second) {
		t.Fatalf("third bench until=%v, want +40s (capped)", until)
	}
	now = now.Add(41 * time.Second)
	for i := 0; i < 3; i++ {
		benched, until = tr.Fail("w1")
	}
	if !benched || until != now.Add(40*time.Second) {
		t.Fatalf("fourth bench until=%v, want cap to hold", until)
	}
}

func TestTrackerWindowSlides(t *testing.T) {
	now := time.Unix(1000, 0)
	tr := NewTracker(TrackerConfig{Threshold: 3, Window: 10 * time.Second,
		Now: func() time.Time { return now }})
	tr.Fail("w")
	tr.Fail("w")
	now = now.Add(11 * time.Second) // both strikes age out
	if benched, _ := tr.Fail("w"); benched {
		t.Fatal("benched on stale strikes")
	}
	if got := tr.Strikes("w"); got != 1 {
		t.Fatalf("strikes=%d, want 1", got)
	}
}

func TestHookNilAndSet(t *testing.T) {
	var nilHook *Hook
	if err := nilHook.Check("x"); err != nil {
		t.Fatalf("nil hook: %v", err)
	}
	nilHook.Set(func(string) error { return errors.New("no-op on nil") })

	h := &Hook{}
	if err := h.Check("x"); err != nil {
		t.Fatalf("empty hook: %v", err)
	}
	boom := errors.New("boom")
	h.Set(func(op string) error {
		if op == "journal.append" {
			return boom
		}
		return nil
	})
	if err := h.Check("journal.append"); !errors.Is(err, boom) {
		t.Fatalf("targeted op: %v", err)
	}
	if err := h.Check("store.append"); err != nil {
		t.Fatalf("untargeted op: %v", err)
	}
	h.Set(nil)
	if err := h.Check("journal.append"); err != nil {
		t.Fatalf("cleared hook: %v", err)
	}
}

func TestFileHook(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fault")
	h := FileHook(path)
	if err := h.Check("w"); err != nil {
		t.Fatalf("no fault file: %v", err)
	}
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := h.Check("w"); err == nil {
		t.Fatal("fault file present but check passed")
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := h.Check("w"); err != nil {
		t.Fatalf("fault file removed: %v", err)
	}
}
