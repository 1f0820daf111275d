package resilience

import (
	"context"
	"errors"
	"fmt"
	"time"

	"sharedopt/internal/stats"
)

// Backoff configures Retry's capped exponential backoff. The zero value
// means 8 attempts starting at 1ms and doubling up to a 100ms cap, with
// no jitter.
type Backoff struct {
	// Attempts is the maximum number of tries (including the first).
	Attempts int
	// Base is the delay before the second attempt; it doubles per
	// retry.
	Base time.Duration
	// Cap bounds the delay between attempts.
	Cap time.Duration
	// Jitter subtracts a uniformly random fraction of each delay, up to
	// this share of it, so concurrent retries against the same
	// overloaded shard decorrelate instead of arriving in lockstep.
	// 0 means no jitter; 1 means anywhere in (0, delay]. Values outside
	// [0, 1] are clamped. The randomness is seeded (see Seed), so a
	// given Backoff value always produces the same gap sequence.
	Jitter float64
	// Seed seeds the jitter stream. Each Retry call draws its own
	// deterministic sequence from it, so two calls with equal Backoff
	// values sleep identically — reproducibility under chaos schedules.
	Seed uint64
	// Sleep overrides the inter-attempt wait, for tests. nil uses a
	// real timer that also honors context cancellation.
	Sleep func(time.Duration)
}

func (b Backoff) withDefaults() Backoff {
	if b.Attempts <= 0 {
		b.Attempts = 8
	}
	if b.Base <= 0 {
		b.Base = time.Millisecond
	}
	if b.Cap <= 0 {
		b.Cap = 100 * time.Millisecond
	}
	if b.Jitter < 0 {
		b.Jitter = 0
	} else if b.Jitter > 1 {
		b.Jitter = 1
	}
	return b
}

// Retryable reports whether err is worth retrying: admission-control
// rejections (ErrOverloaded) are transient by construction. Mechanism
// rejections, ErrJournalBroken and ErrShardWedged are permanent. Retrying
// a submission that may or may not have been journaled is safe because
// duplicate submissions are idempotent no-ops.
func Retryable(err error) bool { return errors.Is(err, ErrOverloaded) }

// Retry runs op until it succeeds, fails permanently, exhausts
// b.Attempts, or ctx ends — whichever comes first — sleeping a capped
// exponential backoff between attempts. The returned error wraps the
// last attempt's error, so errors.Is still matches it. Context
// cancellation is honored immediately, including mid-sleep: a canceled
// backoff wait returns ctx.Err() (wrapping the last attempt's error)
// without finishing the sleep.
func Retry(ctx context.Context, b Backoff, op func() error) error {
	return RetryIf(ctx, b, Retryable, op)
}

// RetryIf is Retry with a caller-chosen retryability predicate — the
// transport layer retries ErrShardUnavailable, which the admission-path
// Retryable deliberately does not cover. Everything else (backoff
// shape, seeded jitter, context handling, error wrapping) is identical.
func RetryIf(ctx context.Context, b Backoff, retryable func(error) bool, op func() error) error {
	b = b.withDefaults()
	delay := b.Base
	var jit *stats.RNG
	if b.Jitter > 0 {
		jit = stats.NewRNG(b.Seed)
	}
	var err error
	for attempt := 1; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			if err == nil {
				return cerr
			}
			return fmt.Errorf("resilience: %d attempts, then %w (last error: %w)", attempt-1, cerr, err)
		}
		err = op()
		if err == nil || !retryable(err) {
			return err
		}
		if attempt >= b.Attempts {
			return fmt.Errorf("resilience: gave up after %d attempts: %w", attempt, err)
		}
		wait := delay
		if jit != nil {
			wait -= time.Duration(b.Jitter * jit.Float64() * float64(delay))
		}
		if b.Sleep != nil {
			b.Sleep(wait)
		} else {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return fmt.Errorf("resilience: %d attempts, then %w (last error: %w)", attempt, ctx.Err(), err)
			}
		}
		if delay *= 2; delay > b.Cap {
			delay = b.Cap
		}
	}
}
