package retry

import (
	"context"
	"errors"
	"testing"
	"time"
)

// fakeClock drives a Policy without real sleeping: Sleep records each delay
// and advances the clock by it, so budget accounting sees simulated time.
type fakeClock struct {
	now    time.Time
	slept  []time.Duration
	cancel context.CancelFunc // when set, fires after cancelAfter sleeps
	after  int
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(0, 0)}
}

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.slept = append(c.slept, d)
	c.now = c.now.Add(d)
	if c.cancel != nil && len(c.slept) >= c.after {
		c.cancel()
	}
	return nil
}

// policy builds a deterministic test policy: jitter draw fixed at frac.
func (c *fakeClock) policy(frac float64) Policy {
	return Policy{
		Initial: 25 * time.Millisecond,
		Cap:     400 * time.Millisecond,
		Rand:    func() float64 { return frac },
		Now:     c.Now,
		Sleep:   c.Sleep,
	}
}

func TestSucceedsFirstTry(t *testing.T) {
	c := newFakeClock()
	calls := 0
	if err := c.policy(1).Do(context.Background(), func() error { calls++; return nil }); err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 1 || len(c.slept) != 0 {
		t.Fatalf("calls=%d slept=%v, want 1 call and no sleeps", calls, c.slept)
	}
}

func TestExponentialCeilingWithCap(t *testing.T) {
	c := newFakeClock()
	boom := errors.New("boom")
	calls := 0
	p := c.policy(1) // jitter draw 1.0: sleep exactly the ceiling
	p.MaxAttempts = 7
	err := p.Do(context.Background(), func() error { calls++; return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("Do = %v, want boom", err)
	}
	if calls != 7 {
		t.Fatalf("calls = %d, want 7", calls)
	}
	want := []time.Duration{
		25 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond,
		200 * time.Millisecond, 400 * time.Millisecond, 400 * time.Millisecond,
	}
	if len(c.slept) != len(want) {
		t.Fatalf("slept %v, want %v", c.slept, want)
	}
	for i := range want {
		if c.slept[i] != want[i] {
			t.Fatalf("sleep %d = %v, want %v (all: %v)", i, c.slept[i], want[i], c.slept)
		}
	}
}

func TestFullJitterBounds(t *testing.T) {
	// With jitter draw 0.5 every sleep is exactly half the ceiling; more
	// generally every sleep must fall in [0, ceiling].
	c := newFakeClock()
	p := c.policy(0.5)
	p.MaxAttempts = 4
	_ = p.Do(context.Background(), func() error { return errors.New("x") })
	want := []time.Duration{
		25 * time.Millisecond / 2, 50 * time.Millisecond / 2, 100 * time.Millisecond / 2,
	}
	for i := range want {
		if c.slept[i] != want[i] {
			t.Fatalf("sleep %d = %v, want %v", i, c.slept[i], want[i])
		}
	}
}

func TestZeroJitterStillRetries(t *testing.T) {
	c := newFakeClock()
	p := c.policy(0) // jitter draw 0: zero-length sleeps, loop must not stall
	p.MaxAttempts = 3
	calls := 0
	_ = p.Do(context.Background(), func() error { calls++; return errors.New("x") })
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

func TestBudgetExhaustion(t *testing.T) {
	c := newFakeClock()
	boom := errors.New("boom")
	p := c.policy(1)
	p.Budget = 100 * time.Millisecond // covers 25+50, not the 100ms third sleep
	calls := 0
	err := p.Do(context.Background(), func() error { calls++; return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("Do = %v, want boom", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3 (budget covers two backoffs)", calls)
	}
}

func TestPermanentStopsImmediately(t *testing.T) {
	c := newFakeClock()
	cause := errors.New("bad request")
	calls := 0
	err := c.policy(1).Do(context.Background(), func() error {
		calls++
		return Permanent(fmt_wrap(cause))
	})
	if !errors.Is(err, cause) {
		t.Fatalf("Do = %v, want cause", err)
	}
	var p *permanentError
	if errors.As(err, &p) {
		t.Fatalf("returned error should be unwrapped, got permanent-marked %v", err)
	}
	if calls != 1 || len(c.slept) != 0 {
		t.Fatalf("calls=%d slept=%v, want no retries", calls, c.slept)
	}
}

// fmt_wrap adds a layer so errors.As must traverse a chain.
func fmt_wrap(err error) error { return &wrapped{err} }

type wrapped struct{ err error }

func (w *wrapped) Error() string { return "wrapped: " + w.err.Error() }
func (w *wrapped) Unwrap() error { return w.err }

func TestPermanentDetectedThroughWrapping(t *testing.T) {
	c := newFakeClock()
	cause := errors.New("cause")
	err := c.policy(1).Do(context.Background(), func() error {
		return fmt_wrap(Permanent(cause))
	})
	if !errors.Is(err, cause) {
		t.Fatalf("Do = %v, want cause", err)
	}
	if len(c.slept) != 0 {
		t.Fatalf("slept %v, want none", c.slept)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := newFakeClock()
	c.cancel, c.after = cancel, 2 // cancel during the second backoff
	p := c.policy(1)
	calls := 0
	err := p.Do(ctx, func() error { calls++; return errors.New("x") })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Do = %v, want context.Canceled", err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
}

func TestOnRetryObservesEveryBackoff(t *testing.T) {
	c := newFakeClock()
	p := c.policy(1)
	p.MaxAttempts = 4
	var attempts []int
	var delays []time.Duration
	p.OnRetry = func(attempt int, err error, delay time.Duration) {
		attempts = append(attempts, attempt)
		delays = append(delays, delay)
	}
	_ = p.Do(context.Background(), func() error { return errors.New("x") })
	if len(attempts) != 3 || attempts[0] != 1 || attempts[2] != 3 {
		t.Fatalf("attempts = %v, want [1 2 3]", attempts)
	}
	for i, d := range delays {
		if d != c.slept[i] {
			t.Fatalf("OnRetry delay %d = %v, slept %v", i, d, c.slept[i])
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	// A zero policy with a real (tiny) sleep must still terminate via
	// MaxAttempts and produce sane backoff.
	p := Policy{MaxAttempts: 2, Initial: time.Microsecond, Cap: time.Microsecond}
	calls := 0
	err := p.Do(context.Background(), func() error { calls++; return errors.New("x") })
	if err == nil || calls != 2 {
		t.Fatalf("err=%v calls=%d, want error after 2 attempts", err, calls)
	}
}
