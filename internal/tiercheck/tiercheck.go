// Package tiercheck is the durable pricing tier's oracle, shared by every
// tier harness: the resilience and transport tests, their chaos fuzz
// targets (FuzzShardedChaos, FuzzNetChaos) and pricer's -load sweep. It
// owns one canonical snapshot of priced state (Snapshot), one seeded
// workload script for both game kinds and the loop that plays it
// (NewScript, Drive), a client-side tally of submission outcomes
// (Tally), and the tier's invariant set.
//
// The paper's cost recovery and truthfulness hold for the durable tier
// only if every accepted bid is journaled and every journaled bid is
// invoiced. Each invariant below is one function returning an error that
// names the shard or user at fault:
//
//   - Accounting: the client tally agrees with ShardStats shard by shard
//     (exact for accepted, rejected, overloaded and read-only; a lower
//     bound for unavailable, whose counter also counts settlement-marker
//     calls), and every offered submission reached a definitive outcome.
//   - Settled: once the period is closed, each shard settled every bid it
//     accepted and holds none pending.
//   - Journaled: each shard's journal holds one bid record per bid it
//     accepted, and no user is journaled on two shards.
//   - RecoverTwice: two recoveries of one journal set snapshot
//     identically and wedge no shard.
//   - Invoiced: every journaled user holds an invoice.
//   - Surplus: the settled surplus is non-negative.
package tiercheck

import (
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"
	"sync"
	"time"

	"sharedopt"
	"sharedopt/internal/core"
	"sharedopt/internal/econ"
	"sharedopt/internal/resilience"
	"sharedopt/internal/stats"
)

// State is the priced state every tier flavor exposes;
// resilience.ShardedService and sharedopt.Service both satisfy it.
type State interface {
	Now() core.Slot
	Closed() bool
	Revenue() econ.Money
	CostIncurred() econ.Money
	Surplus() econ.Money
	ImplementedOpts() []core.OptID
	Invoices() map[core.UserID]econ.Money
}

// Snapshot renders s canonically: clock, totals, the implemented set and
// every invoice in user order. Two tiers priced the same exactly when
// their snapshots are equal.
func Snapshot(s State) string {
	var b strings.Builder
	fmt.Fprintf(&b, "now=%d closed=%v revenue=%v cost=%v surplus=%v\n",
		s.Now(), s.Closed(), s.Revenue(), s.CostIncurred(), s.Surplus())
	fmt.Fprintf(&b, "implemented=%v\n", slices.Sorted(slices.Values(s.ImplementedOpts())))
	inv := s.Invoices()
	for _, u := range slices.Sorted(maps.Keys(inv)) {
		fmt.Fprintf(&b, "user %d paid %v\n", u, inv[u])
	}
	return b.String()
}

// transient reports whether an outcome is worth retrying blindly: no
// decision reached (ErrShardUnavailable) or a full batch (ErrOverloaded).
// Digest dedup and window-idempotent markers make the retries safe.
func transient(err error) bool {
	return errors.Is(err, resilience.ErrShardUnavailable) || errors.Is(err, resilience.ErrOverloaded)
}

// patient is the retry schedule Drive and Retry use for transient
// outcomes: long enough to outlast a shard restart or a tripped
// breaker's cooldown.
var patient = resilience.Backoff{Attempts: 100, Base: time.Millisecond, Cap: 20 * time.Millisecond, Jitter: 0.5, Seed: 7}

// Retry runs op, retrying transient outcomes on Drive's patient schedule
// until one is definitive.
func Retry(op func() error) error {
	return resilience.RetryIf(context.Background(), patient, transient, op)
}

// Outcomes counts submissions by outcome. Accepted, Dup, Rejected,
// ReadOnly, Shed and InDoubt are final outcomes, one per submission;
// Overloaded and Unavailable count attempts, retried or final, as
// resilience.ShardCounters does.
type Outcomes struct {
	Accepted    uint64 // fresh bids acknowledged
	Dup         uint64 // resubmissions acknowledged as the original
	Rejected    uint64 // refused by the mechanism
	ReadOnly    uint64 // turned away by a wedged shard
	Shed        uint64 // last attempt turned away at a full batch
	InDoubt     uint64 // last attempt reached no decision
	Overloaded  uint64 // attempts turned away at a full batch
	Unavailable uint64 // attempts that reached no decision
}

func (o *Outcomes) add(p Outcomes) {
	o.Accepted += p.Accepted
	o.Dup += p.Dup
	o.Rejected += p.Rejected
	o.ReadOnly += p.ReadOnly
	o.Shed += p.Shed
	o.InDoubt += p.InDoubt
	o.Overloaded += p.Overloaded
	o.Unavailable += p.Unavailable
}

// Tally is a client's own count of its submissions' outcomes, per user:
// the independent witness Accounting reconciles ShardStats against. It
// is safe for concurrent use.
type Tally struct {
	mu    sync.Mutex
	users map[core.UserID]*Outcomes
}

// NewTally returns an empty tally.
func NewTally() *Tally { return &Tally{users: make(map[core.UserID]*Outcomes)} }

// Submit makes one submission for user u through submit, retrying
// transient outcomes under b, and records every attempt and the final
// outcome. dup marks an exact resubmission of a bid the tier has already
// acknowledged, which the shards do not count again. It returns the last
// attempt's error.
func (t *Tally) Submit(u core.UserID, dup bool, b resilience.Backoff, submit func() error) error {
	var o Outcomes
	err := resilience.RetryIf(context.Background(), b, transient, func() error {
		err := submit()
		if errors.Is(err, resilience.ErrOverloaded) {
			o.Overloaded++
		} else if errors.Is(err, resilience.ErrShardUnavailable) {
			o.Unavailable++
		}
		return err
	})
	switch {
	case err == nil && dup:
		o.Dup++
	case err == nil:
		o.Accepted++
	case errors.Is(err, resilience.ErrShardWedged):
		o.ReadOnly++
	case errors.Is(err, resilience.ErrOverloaded):
		o.Shed++
	case errors.Is(err, resilience.ErrShardUnavailable):
		o.InDoubt++
	default:
		o.Rejected++
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.users[u] == nil {
		t.users[u] = new(Outcomes)
	}
	t.users[u].add(o)
	return err
}

// Total sums the tally over every user.
func (t *Tally) Total() Outcomes {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum Outcomes
	for _, o := range t.users {
		sum.add(*o)
	}
	return sum
}

// Accounting reconciles a client tally with the shards' own counters,
// shard by shard, and checks that each of the offered submissions ended
// in exactly one definitive outcome: accepted, acknowledged duplicate,
// rejected, read-only or shed. Accepted, rejected, overloaded and
// read-only must match exactly; the unavailable counter only bounds the
// tally from above, since it also counts settlement-marker calls.
func Accounting(counters []resilience.ShardCounters, tally *Tally, offered int) error {
	tally.mu.Lock()
	defer tally.mu.Unlock()
	per := make([]Outcomes, len(counters))
	var total Outcomes
	for _, u := range slices.Sorted(maps.Keys(tally.users)) {
		o := tally.users[u]
		i := resilience.ShardFor(u, len(counters))
		if o.InDoubt > 0 {
			return fmt.Errorf("user %d (shard %d): %d submissions left in doubt", u, i, o.InDoubt)
		}
		per[i].add(*o)
		total.add(*o)
	}
	for i, c := range counters {
		t := per[i]
		got := [4]uint64{c.Accepted, c.Rejected, c.Overloaded, c.ReadOnly}
		want := [4]uint64{t.Accepted, t.Rejected, t.Overloaded, t.ReadOnly}
		if got != want {
			return fmt.Errorf("shard %d: accepted, rejected, overloaded, read-only counters %v, client tally %v", i, got, want)
		}
		if c.Unavailable < t.Unavailable {
			return fmt.Errorf("shard %d: unavailable counter %d below client tally %d", i, c.Unavailable, t.Unavailable)
		}
	}
	if n := total.Accepted + total.Dup + total.Rejected + total.ReadOnly + total.Shed; n != uint64(offered) {
		return fmt.Errorf("accounting leak: %d outcomes for %d offered submissions", n, offered)
	}
	return nil
}

// Settled checks a closed tier: each shard settled every bid it accepted
// and holds none pending.
func Settled(counters []resilience.ShardCounters) error {
	for i, c := range counters {
		if c.Settled != c.Accepted {
			return fmt.Errorf("shard %d settled %d of %d accepted bids", i, c.Settled, c.Accepted)
		}
		if c.Pending != 0 {
			return fmt.Errorf("shard %d still pending %d bids after close", i, c.Pending)
		}
	}
	return nil
}

func isBid(rec resilience.Record) bool {
	return rec.Kind == resilience.KindAdditiveBid || rec.Kind == resilience.KindSubstBid
}

// Journaled checks durability against the live tier's counters: shard
// i's journal holds exactly one bid record per bid it accepted, and no
// user's bids were journaled on two shards.
func Journaled(journals [][]resilience.Record, counters []resilience.ShardCounters) error {
	home := make(map[core.UserID]int)
	for i, recs := range journals {
		var bids uint64
		for _, rec := range recs {
			if !isBid(rec) {
				continue
			}
			bids++
			if j, ok := home[rec.User]; ok && j != i {
				return fmt.Errorf("user %d journaled on shards %d and %d", rec.User, j, i)
			}
			home[rec.User] = i
		}
		if bids != counters[i].Accepted {
			return fmt.Errorf("shard %d journal holds %d bid records for %d accepted bids", i, bids, counters[i].Accepted)
		}
	}
	return nil
}

// RecoverTwice recovers the journal set twice, first onto writers (nil:
// scratch logs) and then onto scratch logs, and checks that the two
// recoveries snapshot identically and wedge no shard. It returns the
// first recovery.
func RecoverTwice(journals [][]resilience.Record, writers []io.Writer, cfg resilience.ShardedConfig) (*resilience.ShardedService, error) {
	return recoverTwice(func(ws []io.Writer) (*resilience.ShardedService, error) {
		return resilience.RecoverShardedService(journals, ws, cfg)
	}, writers, len(journals))
}

func recoverTwice(recover func([]io.Writer) (*resilience.ShardedService, error), writers []io.Writer, shards int) (*resilience.ShardedService, error) {
	_, discard := MemWriters(shards)
	if writers == nil {
		writers = discard
	}
	first, err := recover(writers)
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	second, err := recover(discard)
	if err != nil {
		return nil, fmt.Errorf("second recovery: %w", err)
	}
	if w := first.WedgedShards(); len(w) != 0 {
		return nil, fmt.Errorf("recovery wedged shard %d (of %v): %w", w[0], w, first.Wedged(w[0]))
	}
	if a, b := Snapshot(first), Snapshot(second); a != b {
		return nil, fmt.Errorf("recovery is nondeterministic:\n--- first ---\n%s--- second ---\n%s", a, b)
	}
	return first, nil
}

// Invoiced checks that every user with a journaled bid holds an invoice
// on s, the settled tier.
func Invoiced(journals [][]resilience.Record, s State) error {
	inv := s.Invoices()
	for i, recs := range journals {
		for _, rec := range recs {
			if _, ok := inv[rec.User]; isBid(rec) && !ok {
				return fmt.Errorf("user %d's journaled bid (shard %d) left unpriced", rec.User, i)
			}
		}
	}
	return nil
}

// Surplus checks cost recovery: the settled surplus is non-negative.
func Surplus(s State) error {
	if v := s.Surplus(); v < 0 {
		return fmt.Errorf("negative settled surplus %v", v)
	}
	return nil
}

// RandomCatalog draws n optimizations, IDs 1..n, with cent-precision
// costs between $3 and $18.
func RandomCatalog(r *stats.RNG, n int) []sharedopt.Optimization {
	opts := make([]sharedopt.Optimization, n)
	for i := range opts {
		opts[i] = sharedopt.Optimization{ID: core.OptID(i + 1), Cost: econ.FromCents(int64(300 + r.Intn(1500)))}
	}
	return opts
}

// MemWriters returns n in-memory journals, and the same as writers.
func MemWriters(n int) ([]*resilience.MemLog, []io.Writer) {
	logs := make([]*resilience.MemLog, n)
	ws := make([]io.Writer, n)
	for i := range logs {
		logs[i] = new(resilience.MemLog)
		ws[i] = logs[i]
	}
	return logs, ws
}

// Journals reopens in-memory journals the way OpenFileLog reopens files:
// it parses each log's valid record prefix and truncates the torn tail,
// so a recovery onto the logs resumes appending.
func Journals(logs []*resilience.MemLog) [][]resilience.Record {
	journals := make([][]resilience.Record, len(logs))
	for i, m := range logs {
		var consumed int
		journals[i], consumed, _ = resilience.ReadJournal(m.Bytes())
		m.Truncate(consumed)
	}
	return journals
}
