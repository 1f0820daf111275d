package main

// Chaos mode: seeded end-to-end fault sweeps over the durable pricing
// tier. Each round draws a random workload, a shard count N from
// {1, 2, 4, 8} (N = 1 is the single-journal tier), and independent
// per-shard journal fault plans (plus, in half the rounds, a process kill
// at a random cross-shard write). Concurrent clients drive bids through
// a ShardedService with a small between-slots batch, blindly retrying
// overloads; then the surviving journals are recovered together and the
// robustness invariants checked:
//
//   - exact per-shard accounting: every submission the clients attempted
//     is accepted, mechanism-rejected, ErrOverloaded, or turned away
//     read-only by a wedged shard — never lost — and the shards' counters
//     agree with the clients' own tallies;
//   - durability: each journal holds exactly one record per bid its shard
//     accepted;
//   - determinism: recovering the same journals twice yields identical
//     state;
//   - cost recovery: after settling the recovered period the surplus is
//     non-negative and every journaled (accepted) bid is invoiced.
//
// Any violation is an error: the command exits non-zero naming the
// round and seed, which reproduces the schedule exactly.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"sharedopt"
	"sharedopt/internal/core"
	"sharedopt/internal/econ"
	"sharedopt/internal/resilience"
	"sharedopt/internal/stats"
)

func runChaos(seed uint64, rounds int, w io.Writer) error {
	if rounds < 1 {
		return fmt.Errorf("chaos needs at least 1 round, got %d", rounds)
	}
	for i := 0; i < rounds; i++ {
		rs := seed + uint64(i)
		report, err := shardedChaosRound(rs)
		if err != nil {
			return fmt.Errorf("round %d (seed %d): %w", i, rs, err)
		}
		fmt.Fprintf(w, "chaos round %d: %s\n", i, report)
	}
	fmt.Fprintf(w, "chaos: %d rounds clean (base seed %d)\n", rounds, seed)
	return nil
}

// shardedChaosRound runs one seeded schedule against the sharded
// durable tier: independent per-shard fault plans, an optional
// process kill at a random cross-shard write interleaving, concurrent
// clients with blind overload retries, then joint recovery of the
// surviving journals and the sharded robustness invariants.
func shardedChaosRound(seed uint64) (string, error) {
	r := stats.NewRNG(seed ^ 0xdeadbeefcafef00d)
	kind := sharedopt.Additive
	if r.Intn(2) == 1 {
		kind = sharedopt.Substitutive
	}
	catalog := make([]sharedopt.Optimization, 2+r.Intn(2))
	for i := range catalog {
		catalog[i] = sharedopt.Optimization{
			ID:   core.OptID(i + 1),
			Cost: econ.FromCents(int64(300 + r.Intn(1500))),
		}
	}
	horizon := core.Slot(3 + r.Intn(3))
	shards := []int{1, 2, 4, 8}[r.Intn(4)]
	plans := resilience.RandomShardPlans(seed^0x517cc1b727220a95, shards, 16)
	group := resilience.NewCrashGroup()
	killAt := -1
	if r.Intn(2) == 0 {
		killAt = r.Intn(32)
		group.KillAtWrite(killAt, r.Intn(10))
	}
	cfg := resilience.ShardedConfig{MaxBatch: 2 + r.Intn(4)}

	logs := make([]*resilience.MemLog, shards)
	writers := make([]io.Writer, shards)
	for i := range logs {
		logs[i] = new(resilience.MemLog)
		writers[i] = resilience.NewFaultWriterInGroup(logs[i], plans[i], group)
	}
	ss, err := resilience.NewShardedService(kind, catalog, horizon, writers, cfg)
	if err != nil {
		// Only a fault on some shard's very first write — its config
		// record — may refuse the constructor.
		configFault := killAt >= 0 && killAt < shards
		for _, p := range plans {
			if p.Kind != resilience.FaultNone && p.Record == 0 {
				configFault = true
			}
		}
		if configFault {
			return fmt.Sprintf("shards=%d: config write faulted, service refused", shards), nil
		}
		return "", fmt.Errorf("constructor failed outside its fault window (plans %v, killAt %d): %v", plans, killAt, err)
	}

	// Clients: per slot, a concurrent burst of distinct users routed by
	// the service, some blindly retrying overloads against the bounded
	// batch; every outcome is tallied for the accounting invariant.
	var mu sync.Mutex
	tally := struct{ accepted, rejected, overloaded, readonly int }{}
	nextUser := core.UserID(0)
	submitBurst := func(now core.Slot, n int) {
		type job struct {
			user  core.UserID
			start core.Slot
			end   core.Slot
			vals  []econ.Money
			opt   core.OptID
			set   []core.OptID
			retry bool
		}
		jobs := make([]job, n)
		for i := range jobs {
			nextUser++
			start := now + 1 + core.Slot(r.Intn(int(horizon-now)))
			end := start + core.Slot(r.Intn(int(horizon-start)+1))
			vals := make([]econ.Money, int(end-start+1))
			for k := range vals {
				vals[k] = econ.FromCents(int64(r.Intn(900)))
			}
			jobs[i] = job{
				user: nextUser, start: start, end: end, vals: vals,
				opt:   catalog[r.Intn(len(catalog))].ID,
				set:   []core.OptID{catalog[r.Intn(len(catalog))].ID},
				retry: r.Intn(3) == 0,
			}
		}
		var wg sync.WaitGroup
		for _, j := range jobs {
			wg.Add(1)
			go func(j job) {
				defer wg.Done()
				op := func() error {
					if kind == sharedopt.Additive {
						return ss.SubmitAdditiveBid(j.opt, core.OnlineBid{
							User: j.user, Start: j.start, End: j.end, Values: j.vals,
						})
					}
					return ss.SubmitSubstitutiveBid(core.OnlineSubstBid{
						User: j.user, Opts: j.set, Start: j.start, End: j.end, Values: j.vals,
					})
				}
				var err error
				if j.retry {
					err = resilience.Retry(context.Background(), resilience.Backoff{
						Attempts: 4, Base: 50 * time.Microsecond, Cap: 200 * time.Microsecond,
					}, op)
				} else {
					err = op()
				}
				mu.Lock()
				defer mu.Unlock()
				switch {
				case err == nil:
					tally.accepted++
				case errors.Is(err, resilience.ErrShardWedged):
					tally.readonly++
				case errors.Is(err, resilience.ErrOverloaded):
					tally.overloaded++
				default:
					tally.rejected++
				}
			}(j)
		}
		wg.Wait()
	}

	for now := core.Slot(0); now < horizon; now++ {
		submitBurst(now, 4+r.Intn(8))
		if _, err := ss.AdvanceSlot(); err != nil {
			// Only a fully-wedged tier refuses to advance; partial
			// failure degrades per shard without surfacing here.
			if errors.Is(err, resilience.ErrJournalBroken) {
				break
			}
			return "", fmt.Errorf("advance at slot %d: %v", now, err)
		}
	}

	// Invariant: exact per-shard accounting. Accepted, rejected and
	// read-only are final outcomes on both sides (neither is retried);
	// a retried overload may bounce several times before landing, so
	// the counter bounds the clients' final-outcome tally from above.
	var st resilience.ShardCounters
	for _, sc := range ss.ShardStats() {
		st.Accepted += sc.Accepted
		st.Rejected += sc.Rejected
		st.Overloaded += sc.Overloaded
		st.ReadOnly += sc.ReadOnly
	}
	if got, want := st.Accepted, uint64(tally.accepted); got != want {
		return "", fmt.Errorf("accepted counter %d != client tally %d", got, want)
	}
	if got, want := st.Rejected, uint64(tally.rejected); got != want {
		return "", fmt.Errorf("rejected counter %d != client tally %d", got, want)
	}
	if got, want := st.ReadOnly, uint64(tally.readonly); got != want {
		return "", fmt.Errorf("read-only counter %d != client tally %d", got, want)
	}
	if st.Overloaded < uint64(tally.overloaded) {
		return "", fmt.Errorf("overloaded counter %d < client tally %d", st.Overloaded, tally.overloaded)
	}
	if total := tally.accepted + tally.rejected + tally.overloaded + tally.readonly; total != int(nextUser) {
		return "", fmt.Errorf("accounting leak: %d outcomes for %d submissions", total, nextUser)
	}

	// Invariant: per-journal durability. Each shard's surviving valid
	// prefix holds exactly one bid record per bid that shard accepted.
	journals := make([][]resilience.Record, shards)
	perShard := ss.ShardStats()
	for i, m := range logs {
		recs, _, _ := resilience.ReadJournal(m.Bytes())
		journals[i] = recs
		bidRecords := uint64(0)
		for _, rec := range recs {
			if rec.Kind == resilience.KindAdditiveBid || rec.Kind == resilience.KindSubstBid {
				bidRecords++
			}
		}
		if bidRecords != perShard[i].Accepted {
			return "", fmt.Errorf("shard %d journal holds %d bid records for %d accepted bids",
				i, bidRecords, perShard[i].Accepted)
		}
	}

	// Invariant: deterministic cross-shard recovery. The faults hit the
	// live writers, not the logs, and one user only ever reaches one
	// shard — so recovery must reconcile every journal without wedging.
	discard := func() []io.Writer {
		ws := make([]io.Writer, shards)
		for i := range ws {
			ws[i] = io.Discard
		}
		return ws
	}
	rec1, err := resilience.RecoverShardedService(journals, discard(), cfg)
	if err != nil {
		return "", fmt.Errorf("sharded recovery: %v", err)
	}
	rec2, err := resilience.RecoverShardedService(journals, discard(), cfg)
	if err != nil {
		return "", fmt.Errorf("second sharded recovery: %v", err)
	}
	if w := rec1.WedgedShards(); len(w) != 0 {
		return "", fmt.Errorf("recovery wedged shards %v", w)
	}
	s1, s2 := chaosSnapshot(rec1), chaosSnapshot(rec2)
	if s1 != s2 {
		return "", fmt.Errorf("sharded recovery is nondeterministic:\n%s\nvs\n%s", s1, s2)
	}

	// Invariant: cost recovery across every journal. Settle the
	// recovered period; surplus non-negative, every journaled bid
	// invoiced.
	if !rec1.Closed() {
		if _, err := rec1.ClosePeriod(); err != nil {
			return "", fmt.Errorf("settling recovered period: %v", err)
		}
	}
	if s := rec1.Surplus(); s < 0 {
		return "", fmt.Errorf("negative settled surplus %v", s)
	}
	inv := rec1.Invoices()
	for i, recs := range journals {
		for _, rec := range recs {
			if rec.Kind != resilience.KindAdditiveBid && rec.Kind != resilience.KindSubstBid {
				continue
			}
			if _, ok := inv[rec.User]; !ok {
				return "", fmt.Errorf("accepted bid of user %d (shard %d) left unpriced", rec.User, i)
			}
		}
	}

	return fmt.Sprintf("kind=%v shards=%d plan=%v killAt=%d bids=%d accepted=%d rejected=%d overloaded=%d readonly=%d wedged=%v surplus=%v",
		kind, shards, plans, killAt, nextUser, tally.accepted, tally.rejected, tally.overloaded, tally.readonly,
		ss.WedgedShards(), rec1.Surplus()), nil
}

// chaosState is the read surface of a recovered tier the determinism
// comparison renders.
type chaosState interface {
	Now() core.Slot
	Closed() bool
	Revenue() econ.Money
	CostIncurred() econ.Money
	ImplementedOpts() []core.OptID
	Invoices() map[core.UserID]econ.Money
}

// chaosSnapshot renders the recovered pricing state for determinism
// comparison.
func chaosSnapshot(s chaosState) string {
	var b strings.Builder
	fmt.Fprintf(&b, "now=%d closed=%v revenue=%v cost=%v\n", s.Now(), s.Closed(), s.Revenue(), s.CostIncurred())
	fmt.Fprintf(&b, "implemented=%v\n", s.ImplementedOpts())
	inv := s.Invoices()
	users := make([]core.UserID, 0, len(inv))
	for u := range inv {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
	for _, u := range users {
		fmt.Fprintf(&b, "user %d paid %v\n", u, inv[u])
	}
	return b.String()
}
