package resilience_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"sharedopt"
	"sharedopt/internal/core"
	"sharedopt/internal/econ"
	. "sharedopt/internal/resilience"
	"sharedopt/internal/tiercheck"
)

// TestRetryBackoffSchedule checks the capped doubling schedule without
// real sleeping.
func TestRetryBackoffSchedule(t *testing.T) {
	var delays []time.Duration
	b := Backoff{
		Attempts: 6,
		Base:     time.Millisecond,
		Cap:      4 * time.Millisecond,
		Sleep:    func(d time.Duration) { delays = append(delays, d) },
	}
	calls := 0
	err := Retry(context.Background(), b, func() error { calls++; return ErrOverloaded })
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("exhausted retry: %v", err)
	}
	if calls != 6 {
		t.Fatalf("made %d attempts, want 6", calls)
	}
	want := []time.Duration{1, 2, 4, 4, 4}
	for i := range want {
		want[i] *= time.Millisecond
	}
	if len(delays) != len(want) {
		t.Fatalf("slept %d times, want %d", len(delays), len(want))
	}
	for i, d := range delays {
		if d != want[i] {
			t.Fatalf("delay %d = %v, want %v", i, d, want[i])
		}
	}
}

// TestRetrySucceedsAfterTransientOverload clears the overload after two
// attempts.
func TestRetrySucceedsAfterTransientOverload(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), Backoff{Sleep: func(time.Duration) {}}, func() error {
		if calls++; calls < 3 {
			return ErrOverloaded
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d, want nil after 3", err, calls)
	}
}

// TestRetryStopsOnPermanentError never retries mechanism rejections.
func TestRetryStopsOnPermanentError(t *testing.T) {
	permanent := errors.New("bid is retroactive")
	calls := 0
	err := Retry(context.Background(), Backoff{Sleep: func(time.Duration) {}}, func() error {
		calls++
		return permanent
	})
	if !errors.Is(err, permanent) || calls != 1 {
		t.Fatalf("err=%v calls=%d, want the permanent error after 1 call", err, calls)
	}
	for _, e := range []error{ErrJournalBroken, ErrShardWedged, permanent, nil} {
		if Retryable(e) {
			t.Fatalf("Retryable(%v) = true", e)
		}
	}
	if !Retryable(ErrOverloaded) {
		t.Fatal("Retryable(ErrOverloaded) = false")
	}
}

// TestRetryHonorsContext stops when the context is cancelled between
// attempts and still reports the last error via errors.Is.
func TestRetryHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := Retry(ctx, Backoff{Attempts: 50, Sleep: func(time.Duration) {
		if calls == 2 {
			cancel()
		}
	}}, func() error {
		calls++
		return ErrOverloaded
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled retry: %v", err)
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("cancelled retry should wrap the last attempt error: %v", err)
	}
	if calls != 2 {
		t.Fatalf("made %d calls after cancellation, want 2", calls)
	}
}

// TestRetryAgainstSaturatedIngest is the integration case the contract
// promises: a blind retry loop against a saturated tier — a one-shard
// ShardedService whose between-slots batch is full — keeps bouncing with
// ErrOverloaded until settlement drains the batch, then lands its bid
// exactly once.
func TestRetryAgainstSaturatedIngest(t *testing.T) {
	var m MemLog
	catalog := []sharedopt.Optimization{{ID: 1, Cost: econ.FromDollars(10)}}
	ss, err := NewShardedService(sharedopt.Additive, catalog, 4, []io.Writer{&m}, ShardedConfig{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.SubmitAdditiveBid(1, bidFor(100)); err != nil {
		t.Fatal(err)
	}
	bid := core.OnlineBid{User: 7, Start: 2, End: 2, Values: []econ.Money{econ.FromDollars(3)}}
	attempts := 0
	err = Retry(context.Background(), Backoff{Attempts: 10, Sleep: func(time.Duration) {
		if attempts == 3 {
			// Settlement drains the full batch while the client backs off.
			if _, err := ss.AdvanceSlot(); err != nil {
				t.Error(err)
			}
		}
	}}, func() error {
		attempts++
		return ss.SubmitAdditiveBid(1, bid)
	})
	if err != nil {
		t.Fatalf("retried submission never landed: %v", err)
	}
	if attempts != 4 {
		t.Fatalf("landed after %d attempts, want 4 (3 bounced off the full batch)", attempts)
	}
	if st := ss.ShardStats()[0]; st.Overloaded != 3 || st.Accepted != 2 {
		t.Fatalf("counters = %+v, want Overloaded=3 Accepted=2", st)
	}
	// One journal record per accepted bid despite the blind retries.
	if err := tiercheck.Journaled(tiercheck.Journals([]*MemLog{&m}), ss.ShardStats()); err != nil {
		t.Fatal(err)
	}
	if w := ss.WedgedShards(); len(w) != 0 {
		t.Fatalf("shards %v wedged during retry test", w)
	}
}

// TestRetryJitterDeterministic pins the jittered gap sequence: a seeded
// Backoff always sleeps the same sequence, every gap stays within
// [(1-Jitter)·delay, delay], and differently-seeded Backoffs (the point
// of jitter: concurrent retries decorrelate) produce different gaps.
func TestRetryJitterDeterministic(t *testing.T) {
	run := func(seed uint64) []time.Duration {
		var delays []time.Duration
		b := Backoff{
			Attempts: 6,
			Base:     time.Millisecond,
			Cap:      4 * time.Millisecond,
			Jitter:   0.5,
			Seed:     seed,
			Sleep:    func(d time.Duration) { delays = append(delays, d) },
		}
		err := Retry(context.Background(), b, func() error { return ErrOverloaded })
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("exhausted retry: %v", err)
		}
		return delays
	}

	first := run(42)
	if len(first) != 5 {
		t.Fatalf("slept %d times, want 5", len(first))
	}
	// The undistorted schedule bounds each jittered gap from above.
	full := []time.Duration{1, 2, 4, 4, 4}
	for i := range full {
		full[i] *= time.Millisecond
	}
	distinct := false
	for i, d := range first {
		if d > full[i] || d < full[i]-time.Duration(0.5*float64(full[i])) {
			t.Fatalf("gap %d = %v outside [%v, %v]", i, d, full[i]/2, full[i])
		}
		if d != full[i] {
			distinct = true
		}
	}
	if !distinct {
		t.Fatal("jitter never moved a gap off the undistorted schedule")
	}
	// Determinism under a fixed seed: the exact same gap sequence.
	again := run(42)
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("seeded jitter is nondeterministic: gap %d was %v then %v", i, first[i], again[i])
		}
	}
	// Decorrelation across seeds.
	other := run(43)
	same := true
	for i := range first {
		if first[i] != other[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical gap sequences")
	}
}

// TestRetryJitterClamped: out-of-range Jitter values clamp instead of
// producing negative or amplified sleeps.
func TestRetryJitterClamped(t *testing.T) {
	for _, jit := range []float64{-2, 5} {
		var delays []time.Duration
		b := Backoff{
			Attempts: 3,
			Base:     time.Millisecond,
			Cap:      4 * time.Millisecond,
			Jitter:   jit,
			Seed:     9,
			Sleep:    func(d time.Duration) { delays = append(delays, d) },
		}
		Retry(context.Background(), b, func() error { return ErrOverloaded })
		for i, d := range delays {
			if d < 0 || d > 2*time.Millisecond {
				t.Fatalf("Jitter=%v: gap %d = %v out of range", jit, i, d)
			}
		}
	}
}

// TestRetryCancelDuringSleep pins the mid-sleep cancellation contract: a
// context cancelled while Retry waits out a backoff gap returns
// immediately — no further attempts, no finished sleep — and the error
// reports both the cancellation and the last attempt's error. Before
// this contract, a cancelled caller slept out the full gap (up to Cap)
// before noticing.
func TestRetryCancelDuringSleep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	start := time.Now()
	// No Sleep override: the real timer path is the one under test.
	// After the first failed attempt Retry waits ~1h; cancel fires
	// shortly into that sleep.
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	err := Retry(ctx, Backoff{Attempts: 5, Base: time.Hour, Cap: time.Hour}, func() error {
		calls++
		return ErrOverloaded
	})
	waited := time.Since(start)
	if calls != 1 {
		t.Fatalf("made %d attempts, want 1 (cancelled during the first gap)", calls)
	}
	if !errors.Is(err, context.Canceled) || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("mid-sleep cancellation error should wrap both ctx and last attempt error: %v", err)
	}
	if waited > 10*time.Second {
		t.Fatalf("cancelled retry returned after %v: slept out the gap instead of honoring ctx", waited)
	}
}

// TestRetryIfPredicate: RetryIf retries exactly what its predicate
// covers — here ErrShardUnavailable, which the admission-path Retryable
// never retries.
func TestRetryIfPredicate(t *testing.T) {
	calls := 0
	transient := fmt.Errorf("%w: conn reset", ErrShardUnavailable)
	err := RetryIf(context.Background(), Backoff{Sleep: func(time.Duration) {}},
		func(err error) bool { return errors.Is(err, ErrShardUnavailable) },
		func() error {
			if calls++; calls < 3 {
				return transient
			}
			return nil
		})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d, want success after 3 attempts", err, calls)
	}

	// The same error is permanent under plain Retry.
	calls = 0
	err = Retry(context.Background(), Backoff{Sleep: func(time.Duration) {}}, func() error {
		calls++
		return transient
	})
	if !errors.Is(err, ErrShardUnavailable) || calls != 1 {
		t.Fatalf("err=%v calls=%d, want immediate permanent failure", err, calls)
	}
}
