// Package retry implements capped exponential backoff with full jitter —
// the retry discipline shared by every client that talks to a qfe-server
// through crashes and failovers (service.Client, which the simulation and
// chaos harnesses drive sessions with; the cluster router's proxy
// attempts; the failover handoff RPCs).
//
// The policy follows the classic "full jitter" scheme: attempt i sleeps a
// uniformly random duration in [0, min(Cap, Initial·Multiplier^i)]. Jitter
// decorrelates the retry storms that synchronized clients would otherwise
// aim at a server that just came back, while the cap bounds worst-case
// added latency. Retrying is only safe when the operation is idempotent;
// in this codebase that is arranged by construction (seq-tagged feedback,
// idempotent create-by-id, merge-by-progress adoption).
//
// Clock, sleep and randomness are injectable so tests can drive a retry
// loop through hours of simulated backoff without sleeping.
package retry

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Policy describes one retry discipline. The zero value selects defaults
// (25ms initial, 1s cap, multiplier 2, no attempt bound, no budget).
// Policies are value types: copy freely, share safely.
type Policy struct {
	// Initial is the first backoff ceiling (default 25ms).
	Initial time.Duration
	// Cap bounds the backoff ceiling (default 1s).
	Cap time.Duration
	// Multiplier grows the ceiling between attempts (default 2).
	Multiplier float64
	// MaxAttempts bounds the number of fn invocations (0 = unbounded;
	// bound the loop with Budget or the context instead).
	MaxAttempts int
	// Budget bounds the total wall time of the loop, sleeps included: a
	// retry whose backoff would overrun the budget is not attempted and the
	// last error is returned (0 = no budget).
	Budget time.Duration

	// Rand supplies the jitter draw in [0, 1) (default math/rand global).
	Rand func() float64
	// Now supplies the clock for budget accounting (default time.Now).
	Now func() time.Time
	// Sleep waits for d or until ctx is done, returning ctx.Err() in the
	// latter case (default a real timer). Tests inject a fake.
	Sleep func(ctx context.Context, d time.Duration) error
	// OnRetry, when set, observes every scheduled retry: the attempt number
	// just failed (1-based), its error, and the backoff about to be slept.
	OnRetry func(attempt int, err error, delay time.Duration)
}

// permanentError marks an error that must not be retried.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so Do stops immediately and returns the original
// error: the failure is not transient (a 4xx response, a validation error,
// a durability violation) and retrying would either spin or double-apply.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// Do invokes fn until it succeeds, returns a Permanent error, exhausts
// MaxAttempts or Budget, or ctx is cancelled. It returns nil on success,
// the unwrapped cause for Permanent failures, the last transient error on
// exhaustion, and ctx.Err() (joined with the last transient error, if any)
// on cancellation.
func (p Policy) Do(ctx context.Context, fn func() error) error {
	if p.Initial <= 0 {
		p.Initial = 25 * time.Millisecond
	}
	if p.Cap <= 0 {
		p.Cap = time.Second
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	if p.Rand == nil {
		p.Rand = rand.Float64
	}
	if p.Now == nil {
		p.Now = time.Now
	}
	if p.Sleep == nil {
		p.Sleep = realSleep
	}
	if ctx == nil {
		ctx = context.Background()
	}

	start := p.Now()
	ceiling := p.Initial
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := fn()
		if err == nil {
			return nil
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			return perm.err
		}
		if p.MaxAttempts > 0 && attempt >= p.MaxAttempts {
			mGiveups.Inc()
			return err
		}
		delay := time.Duration(p.Rand() * float64(ceiling))
		if p.Budget > 0 && p.Now().Sub(start)+delay > p.Budget {
			mGiveups.Inc()
			return err
		}
		if p.OnRetry != nil {
			p.OnRetry(attempt, err, delay)
		}
		mRetriesScheduled.Inc()
		if serr := p.Sleep(ctx, delay); serr != nil {
			return fmt.Errorf("%w (last attempt: %v)", serr, err)
		}
		next := time.Duration(float64(ceiling) * p.Multiplier)
		if next > p.Cap || next < ceiling { // < guards overflow
			next = p.Cap
		}
		ceiling = next
	}
}

// realSleep waits for d or ctx, whichever first.
func realSleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		// Still honour cancellation between attempts.
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
