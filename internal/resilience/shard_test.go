package resilience

// The sharding property: a ShardedService must price exactly like one
// plain sharedopt.Service — invoices, surplus, and implemented sets
// byte-identical at every settlement point, for any shard count — while
// degrading per shard, not per tier, under partial failure.

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"

	"sharedopt"
	"sharedopt/internal/core"
	"sharedopt/internal/econ"
	"sharedopt/internal/stats"
)

// pricedState is the read surface shared by every tier flavor, for
// snapshot comparison.
type pricedState interface {
	Now() core.Slot
	Closed() bool
	Revenue() econ.Money
	CostIncurred() econ.Money
	Surplus() econ.Money
	ImplementedOpts() []core.OptID
	Invoices() map[core.UserID]econ.Money
}

// snapshotTier renders the complete priced state of any tier flavor.
func snapshotTier(s pricedState) string {
	var b strings.Builder
	fmt.Fprintf(&b, "now=%d closed=%v revenue=%v cost=%v surplus=%v\n",
		s.Now(), s.Closed(), s.Revenue(), s.CostIncurred(), s.Surplus())
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

// One workload script op. The same script drives every tier flavor so
// their outcomes can be compared record for record.
const (
	sopSubmit = iota
	sopDup
	sopRevise
	sopInvalid
	sopAdvance
	sopClose
)

type tierOp struct {
	kind  int
	user  core.UserID
	opt   core.OptID
	set   []core.OptID
	start core.Slot
	end   core.Slot
	vals  []econ.Money
}

// buildTierOps draws a deterministic workload script: valid bids,
// exact-duplicate resubmissions (idempotent no-ops), upward revisions
// of still-future bids, invalid retroactive bids (rejected, never
// journaled), slot advances, and an occasional early close.
func buildTierOps(seed uint64, kind sharedopt.GameKind, catalog []sharedopt.Optimization, horizon core.Slot) []tierOp {
	r := stats.NewRNG(seed)
	var ops []tierOp
	var accepted []tierOp
	nextUser := core.UserID(1)
	for now := core.Slot(0); now < horizon; now++ {
		for i, k := 0, 1+r.Intn(3); i < k; i++ {
			start := now + 1 + core.Slot(r.Intn(int(horizon-now)))
			end := start + core.Slot(r.Intn(int(horizon-start)+1))
			op := tierOp{kind: sopSubmit, user: nextUser, start: start, end: end, vals: randomValues(r, start, end)}
			nextUser++
			if kind == sharedopt.Additive {
				op.opt = catalog[r.Intn(len(catalog))].ID
			} else {
				op.set = []core.OptID{catalog[r.Intn(len(catalog))].ID}
				for _, o := range catalog {
					if o.ID != op.set[0] && r.Intn(2) == 0 {
						op.set = append(op.set, o.ID)
					}
				}
			}
			ops = append(ops, op)
			accepted = append(accepted, op)
		}
		if len(accepted) > 0 && r.Intn(3) == 0 {
			d := accepted[r.Intn(len(accepted))]
			d.kind = sopDup
			ops = append(ops, d)
		}
		if r.Intn(3) == 0 {
			for _, c := range r.Perm(len(accepted)) {
				if cand := accepted[c]; cand.start > now {
					rev := cand
					rev.kind = sopRevise
					rev.vals = append([]econ.Money(nil), cand.vals...)
					for j := range rev.vals {
						rev.vals[j] += econ.FromCents(int64(1 + r.Intn(300)))
					}
					ops = append(ops, rev)
					accepted[c] = rev // later dups resubmit the latest curve
					break
				}
			}
		}
		if now > 0 && r.Intn(4) == 0 {
			ops = append(ops, tierOp{kind: sopInvalid, user: 9999,
				opt: catalog[0].ID, set: []core.OptID{catalog[0].ID},
				start: now, end: now, vals: []econ.Money{econ.Dollar}})
		}
		if now > 1 && r.Intn(10) == 0 {
			ops = append(ops, tierOp{kind: sopClose})
			return ops
		}
		ops = append(ops, tierOp{kind: sopAdvance})
	}
	return ops
}

// tierBackend is the mutation surface applyTierOps drives, plus the
// clock reads it needs to skip already-settled work when re-driving a
// script after recovery. Both ShardedService and sharedopt.Service
// satisfy it.
type tierBackend interface {
	SubmitAdditiveBid(opt core.OptID, bid core.OnlineBid) error
	SubmitSubstitutiveBid(bid core.OnlineSubstBid) error
	AdvanceSlot() (core.SlotReport, error)
	ClosePeriod() (map[core.UserID]econ.Money, error)
	Now() core.Slot
	Closed() bool
}

// applyTierOps drives a workload script against a tier. strict asserts
// each op's contractual outcome (the clean-run oracle); non-strict
// tolerates errors (crash schedules, post-recovery continuation) and
// skips advances the tier has already settled. onSettle, if non-nil,
// runs after each successful settlement (advance or close).
func applyTierOps(t *testing.T, ops []tierOp, b tierBackend, kind sharedopt.GameKind, strict bool, onSettle func()) {
	t.Helper()
	adv := core.Slot(0)
	submit := func(op tierOp) error {
		if kind == sharedopt.Additive {
			return b.SubmitAdditiveBid(op.opt, core.OnlineBid{
				User: op.user, Start: op.start, End: op.end, Values: op.vals})
		}
		return b.SubmitSubstitutiveBid(core.OnlineSubstBid{
			User: op.user, Opts: op.set, Start: op.start, End: op.end, Values: op.vals})
	}
	for _, op := range ops {
		switch op.kind {
		case sopSubmit, sopDup, sopRevise:
			if err := submit(op); err != nil && strict {
				t.Fatalf("valid submission rejected (op %+v): %v", op, err)
			}
		case sopInvalid:
			if err := submit(op); err == nil && strict {
				t.Fatal("retroactive bid accepted")
			}
		case sopAdvance:
			adv++
			if adv <= b.Now() {
				continue // settled before the crash; replay skips it
			}
			if _, err := b.AdvanceSlot(); err != nil {
				if strict {
					t.Fatalf("advance to slot %d: %v", adv, err)
				}
			} else if onSettle != nil {
				onSettle()
			}
		case sopClose:
			if b.Closed() {
				continue
			}
			if _, err := b.ClosePeriod(); err != nil {
				if strict {
					t.Fatalf("close: %v", err)
				}
			} else if onSettle != nil {
				onSettle()
			}
		}
	}
}

// memWriters returns n independent in-memory journal targets.
func memWriters(n int) ([]*MemLog, []io.Writer) {
	logs := make([]*MemLog, n)
	ws := make([]io.Writer, n)
	for i := range logs {
		logs[i] = &MemLog{}
		ws[i] = logs[i]
	}
	return logs, ws
}

// TestShardedMatchesSingleShard is the byte-identity property: the same
// workload script through 1, 2, 4, and 8 shards settles to exactly the
// single-shard reference state at every settlement point.
func TestShardedMatchesSingleShard(t *testing.T) {
	for _, kind := range []sharedopt.GameKind{sharedopt.Additive, sharedopt.Substitutive} {
		for seed := uint64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("kind=%v/seed=%d", kind, seed), func(t *testing.T) {
				r := stats.NewRNG(seed)
				catalog := randomCatalog(r, 3)
				horizon := core.Slot(4 + r.Intn(4))
				ops := buildTierOps(seed*977+uint64(kind), kind, catalog, horizon)

				// The reference is one plain Service. It has no dedup, so
				// it is driven without the exact-duplicate ops: a
				// duplicate changes no state, and once its slot has passed
				// a plain Service would refuse it as retroactive.
				ref, err := newService(kind, catalog, horizon)
				if err != nil {
					t.Fatal(err)
				}
				var refOps []tierOp
				for _, op := range ops {
					if op.kind != sopDup {
						refOps = append(refOps, op)
					}
				}
				var refSnaps []string
				applyTierOps(t, refOps, ref, kind, true, func() {
					refSnaps = append(refSnaps, snapshotTier(ref))
				})

				bidOps := 0
				for _, op := range ops {
					if op.kind == sopSubmit || op.kind == sopRevise {
						bidOps++
					}
				}

				for _, n := range []int{1, 2, 4, 8} {
					_, ws := memWriters(n)
					ss, err := NewShardedService(kind, catalog, horizon, ws, ShardedConfig{})
					if err != nil {
						t.Fatal(err)
					}
					var snaps []string
					applyTierOps(t, ops, ss, kind, true, func() {
						snaps = append(snaps, snapshotTier(ss))
					})
					if len(snaps) != len(refSnaps) {
						t.Fatalf("n=%d: %d settlements, reference had %d", n, len(snaps), len(refSnaps))
					}
					for k := range snaps {
						if snaps[k] != refSnaps[k] {
							t.Fatalf("n=%d: settlement %d diverged from single-shard\n--- sharded ---\n%s--- reference ---\n%s",
								n, k, snaps[k], refSnaps[k])
						}
					}
					var acc, settled uint64
					for _, c := range ss.ShardStats() {
						acc += c.Accepted
						settled += c.Settled
					}
					if acc != uint64(bidOps) {
						t.Fatalf("n=%d: shards accepted %d bids, script had %d", n, acc, bidOps)
					}
					if settled != acc {
						t.Fatalf("n=%d: settled %d of %d accepted bids", n, settled, acc)
					}
				}
			})
		}
	}
}

// TestShardForPinned pins the router: it is part of the durable
// contract (recovery regroups users by re-deriving it), so its values
// may never change for journals in the wild.
func TestShardForPinned(t *testing.T) {
	want := map[int][]int{
		// shards -> ShardFor(user, shards) for users 1..8
		2: {1, 0, 1, 0, 0, 0, 1, 0},
		4: {1, 2, 1, 2, 2, 0, 3, 2},
		8: {1, 6, 5, 2, 2, 0, 7, 6},
	}
	for shards, row := range want {
		for u, exp := range row {
			if got := ShardFor(core.UserID(u+1), shards); got != exp {
				t.Errorf("ShardFor(%d, %d) = %d, want %d", u+1, shards, got, exp)
			}
		}
	}
	// And the spread: 1000 consecutive users across 8 shards must not
	// collapse onto a few shards.
	counts := make([]int, 8)
	for u := core.UserID(1); u <= 1000; u++ {
		counts[ShardFor(u, 8)]++
	}
	for i, c := range counts {
		if c < 60 || c > 190 {
			t.Errorf("shard %d holds %d of 1000 users: router is skewed %v", i, c, counts)
		}
	}
}

// userOnShard returns the first user after `after` routing to shard
// `want` of `shards`.
func userOnShard(want, shards int, after core.UserID) core.UserID {
	for u := after + 1; ; u++ {
		if ShardFor(u, shards) == want {
			return u
		}
	}
}

// shardBid builds a minimal valid bid for user u at slot 1.
func shardBid(u core.UserID) core.OnlineBid {
	return core.OnlineBid{User: u, Start: 1, End: 1, Values: []econ.Money{econ.FromDollars(5)}}
}

// TestShardedWedgeDegradation verifies partial failure: a journal fault
// on one shard wedges only that shard — its users get ErrShardWedged
// with exact ReadOnly counters, its durable pre-wedge bids still
// settle, and the other shards' users are untouched.
func TestShardedWedgeDegradation(t *testing.T) {
	const n = 4
	catalog := []sharedopt.Optimization{{ID: 1, Cost: econ.FromDollars(2)}}
	logs, _ := memWriters(n)
	ws := make([]io.Writer, n)
	for i := range ws {
		ws[i] = logs[i]
	}
	// Shard 0's journal fails on its record 2: config=0, first bid=1,
	// second bid=2.
	ws[0] = NewFaultWriter(logs[0], FaultPlan{Kind: FaultErr, Record: 2})
	ss, err := NewShardedService(sharedopt.Additive, catalog, 4, ws, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}

	u0a := userOnShard(0, n, 0)
	u0b := userOnShard(0, n, u0a)
	u0c := userOnShard(0, n, u0b)
	u1 := userOnShard(1, n, 0)

	if err := ss.SubmitAdditiveBid(1, shardBid(u0a)); err != nil {
		t.Fatalf("pre-fault bid rejected: %v", err)
	}
	err = ss.SubmitAdditiveBid(1, shardBid(u0b))
	if !errors.Is(err, ErrShardWedged) {
		t.Fatalf("faulted submission returned %v, want ErrShardWedged", err)
	}
	if err := ss.Wedged(0); !errors.Is(err, ErrShardWedged) {
		t.Fatalf("Wedged(0) = %v", err)
	}
	if err := ss.SubmitAdditiveBid(1, shardBid(u0c)); !errors.Is(err, ErrShardWedged) {
		t.Fatalf("post-wedge submission returned %v, want ErrShardWedged", err)
	}
	if got := ss.WedgedShards(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("WedgedShards() = %v, want [0]", got)
	}
	// Other shards keep accepting.
	if err := ss.SubmitAdditiveBid(1, shardBid(u1)); err != nil {
		t.Fatalf("healthy shard rejected a bid: %v", err)
	}
	// Settlement proceeds without the wedged shard's marker, but folds
	// its durable pre-wedge bid.
	if _, err := ss.AdvanceSlot(); err != nil {
		t.Fatalf("advance with one wedged shard: %v", err)
	}
	if _, ok := ss.Invoice(u0a); !ok {
		t.Fatal("durable pre-wedge bid was not settled")
	}
	if _, ok := ss.Invoice(u1); !ok {
		t.Fatal("healthy shard's bid was not settled")
	}
	st := ss.ShardStats()
	if st[0].Accepted != 1 || st[0].ReadOnly != 2 || st[0].Settled != 1 {
		t.Fatalf("shard 0 counters = %+v, want Accepted=1 ReadOnly=2 Settled=1", st[0])
	}
	if st[1].Accepted != 1 || st[1].ReadOnly != 0 {
		t.Fatalf("shard 1 counters = %+v, want Accepted=1 ReadOnly=0", st[1])
	}
	// The wedged shard's journal never saw the adv marker; the healthy
	// ones did.
	recs0, _, _ := ReadJournal(logs[0].Bytes())
	for _, rec := range recs0 {
		if rec.Kind == KindAdvanceSlot {
			t.Fatal("wedged shard journaled an adv marker")
		}
	}
	recs1, _, _ := ReadJournal(logs[1].Bytes())
	advs := 0
	for _, rec := range recs1 {
		if rec.Kind == KindAdvanceSlot {
			advs++
		}
	}
	if advs != 1 {
		t.Fatalf("healthy shard journaled %d adv markers, want 1", advs)
	}
}

// TestShardedAllWedgedRefusal: when every shard is wedged nothing can
// be made durable, so settlement refuses with the tier-dead error and
// restores the drained batches.
func TestShardedAllWedgedRefusal(t *testing.T) {
	const n = 2
	catalog := []sharedopt.Optimization{{ID: 1, Cost: econ.FromDollars(2)}}
	logs, _ := memWriters(n)
	ws := make([]io.Writer, n)
	for i := range ws {
		// Both journals fail on their second record (the first bid).
		ws[i] = NewFaultWriter(logs[i], FaultPlan{Kind: FaultErr, Record: 1})
	}
	ss, err := NewShardedService(sharedopt.Additive, catalog, 4, ws, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		u := userOnShard(i, n, 0)
		if err := ss.SubmitAdditiveBid(1, shardBid(u)); !errors.Is(err, ErrShardWedged) {
			t.Fatalf("shard %d fault returned %v, want ErrShardWedged", i, err)
		}
	}
	_, err = ss.AdvanceSlot()
	if !errors.Is(err, ErrJournalBroken) || !errors.Is(err, ErrShardWedged) {
		t.Fatalf("all-wedged advance returned %v, want ErrJournalBroken wrapping ErrShardWedged", err)
	}
	if _, err := ss.ClosePeriod(); !errors.Is(err, ErrJournalBroken) {
		t.Fatalf("all-wedged close returned %v, want ErrJournalBroken", err)
	}
	if ss.Now() != 0 {
		t.Fatalf("tier advanced to %d with no durable marker", ss.Now())
	}
}

// TestShardedOverloaded: a full between-slots batch admission-fails
// with the retryable ErrOverloaded and drains at the next settlement.
func TestShardedOverloaded(t *testing.T) {
	const n = 2
	catalog := []sharedopt.Optimization{{ID: 1, Cost: econ.FromDollars(2)}}
	_, ws := memWriters(n)
	ss, err := NewShardedService(sharedopt.Additive, catalog, 4, ws, ShardedConfig{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	u1 := userOnShard(0, n, 0)
	u2 := userOnShard(0, n, u1)
	if err := ss.SubmitAdditiveBid(1, shardBid(u1)); err != nil {
		t.Fatal(err)
	}
	err = ss.SubmitAdditiveBid(1, shardBid(u2))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-batch submission returned %v, want ErrOverloaded", err)
	}
	if !Retryable(err) {
		t.Fatal("ErrOverloaded from a full shard batch is not Retryable")
	}
	// Duplicates of an already-batched bid bypass the admission check's
	// outcome: they are no-ops, not new load... but with the batch full
	// they are still turned away before the dedup lookup, which is the
	// documented fast-fail. Drain and retry instead.
	if _, err := ss.AdvanceSlot(); err != nil {
		t.Fatal(err)
	}
	retry := core.OnlineBid{User: u2, Start: 2, End: 2, Values: []econ.Money{econ.FromDollars(5)}}
	if err := ss.SubmitAdditiveBid(1, retry); err != nil {
		t.Fatalf("post-drain retry rejected: %v", err)
	}
	st := ss.ShardStats()
	if st[0].Overloaded != 1 || st[0].Accepted != 2 {
		t.Fatalf("shard 0 counters = %+v, want Overloaded=1 Accepted=2", st[0])
	}
}

// TestShardedDuplicateNotDoubleSettled: an idempotent duplicate must
// not be folded into settlement twice.
func TestShardedDuplicateNotDoubleSettled(t *testing.T) {
	catalog := []sharedopt.Optimization{{ID: 1, Cost: econ.FromDollars(2)}}
	_, ws := memWriters(2)
	ss, err := NewShardedService(sharedopt.Additive, catalog, 4, ws, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sharedopt.NewAdditiveService(catalog, 4)
	if err != nil {
		t.Fatal(err)
	}
	u := userOnShard(1, 2, 0)
	bid := shardBid(u)
	if err := ref.SubmitAdditiveBid(1, bid); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // once fresh, twice duplicate
		if err := ss.SubmitAdditiveBid(1, bid); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ss.AdvanceSlot(); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.AdvanceSlot(); err != nil {
		t.Fatal(err)
	}
	if got, want := snapshotTier(ss), snapshotTier(ref); got != want {
		t.Fatalf("duplicate handling diverged\n--- sharded ---\n%s--- reference ---\n%s", got, want)
	}
	st := ss.ShardStats()
	if st[1].Accepted != 1 || st[1].Settled != 1 {
		t.Fatalf("shard 1 counters = %+v, want Accepted=1 Settled=1", st[1])
	}
}
