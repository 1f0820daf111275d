package resilience_test

// The sharding property: a ShardedService must price exactly like one
// plain sharedopt.Service — invoices, surplus, and implemented sets
// byte-identical at every settlement point, for any shard count — while
// degrading per shard, not per tier, under partial failure.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"sharedopt"
	"sharedopt/internal/core"
	"sharedopt/internal/econ"
	. "sharedopt/internal/resilience"
	"sharedopt/internal/stats"
	"sharedopt/internal/tiercheck"
)

// TestShardedMatchesSingleShard is the byte-identity property: the same
// workload script through 1, 2, 4, and 8 shards settles to exactly the
// single-shard reference state at every settlement point, with exact
// accounting and one journal record per accepted bid.
func TestShardedMatchesSingleShard(t *testing.T) {
	for _, kind := range []sharedopt.GameKind{sharedopt.Additive, sharedopt.Substitutive} {
		for seed := uint64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("kind=%v/seed=%d", kind, seed), func(t *testing.T) {
				r := stats.NewRNG(seed)
				catalog := tiercheck.RandomCatalog(r, 3)
				horizon := core.Slot(4 + r.Intn(4))
				sc := tiercheck.NewScript(seed*977+uint64(kind), kind, catalog, horizon, 1, 3)

				// The reference is one plain Service. It has no dedup, so
				// it is driven without the exact-duplicate ops: a
				// duplicate changes no state, and once its slot has passed
				// a plain Service would refuse it as retroactive.
				ref, err := NewService(kind, catalog, horizon)
				if err != nil {
					t.Fatal(err)
				}
				refSc := sc
				refSc.Ops = nil
				for _, op := range sc.Ops {
					if op.Kind != tiercheck.Dup {
						refSc.Ops = append(refSc.Ops, op)
					}
				}
				var refSnaps []string
				if _, err := tiercheck.Drive(ref, refSc, tiercheck.Strict, tiercheck.Hooks{Settled: func() {
					refSnaps = append(refSnaps, tiercheck.Snapshot(ref))
				}}); err != nil {
					t.Fatalf("reference: %v", err)
				}

				for _, n := range []int{1, 2, 4, 8} {
					logs, ws := tiercheck.MemWriters(n)
					ss, err := NewShardedService(kind, catalog, horizon, ws, ShardedConfig{})
					if err != nil {
						t.Fatal(err)
					}
					var snaps []string
					tally, err := tiercheck.Drive(ss, sc, tiercheck.Strict, tiercheck.Hooks{Settled: func() {
						snaps = append(snaps, tiercheck.Snapshot(ss))
					}})
					if err != nil {
						t.Fatalf("n=%d: %v", n, err)
					}
					if len(snaps) != len(refSnaps) {
						t.Fatalf("n=%d: %d settlements, reference had %d", n, len(snaps), len(refSnaps))
					}
					for k := range snaps {
						if snaps[k] != refSnaps[k] {
							t.Fatalf("n=%d: settlement %d diverged from single-shard\n--- sharded ---\n%s--- reference ---\n%s",
								n, k, snaps[k], refSnaps[k])
						}
					}
					counters := ss.ShardStats()
					for _, err := range []error{
						tiercheck.Accounting(counters, tally, sc.Bids()),
						tiercheck.Settled(counters),
						tiercheck.Journaled(tiercheck.Journals(logs), counters),
					} {
						if err != nil {
							t.Fatalf("n=%d: %v", n, err)
						}
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
	logs, ws := tiercheck.MemWriters(n)
	// Shard 0's journal fails on its write 1: write 0 is the config
	// record and the first bid in one group, write 1 the second bid.
	ws[0] = NewFaultWriter(logs[0], FaultPlan{Kind: FaultErr, Record: 1})
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
	if advs, _ := journalFrontier(t, logs[0]); advs != 0 {
		t.Fatal("wedged shard journaled an adv marker")
	}
	if advs, _ := journalFrontier(t, logs[1]); advs != 1 {
		t.Fatalf("healthy shard journaled %d adv markers, want 1", advs)
	}
}

// TestShardedAllWedgedRefusal: when every shard is wedged nothing can
// be made durable, so settlement refuses with the tier-dead error and
// restores the drained batches.
func TestShardedAllWedgedRefusal(t *testing.T) {
	const n = 2
	catalog := []sharedopt.Optimization{{ID: 1, Cost: econ.FromDollars(2)}}
	logs, _ := tiercheck.MemWriters(n)
	ws := make([]io.Writer, n)
	for i := range ws {
		// Both journals fail on their first write: the group of the config
		// record and the first bid.
		ws[i] = NewFaultWriter(logs[i], FaultPlan{Kind: FaultErr, Record: 0})
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
	_, ws := tiercheck.MemWriters(n)
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
	_, ws := tiercheck.MemWriters(2)
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
	if got, want := tiercheck.Snapshot(ss), tiercheck.Snapshot(ref); got != want {
		t.Fatalf("duplicate handling diverged\n--- sharded ---\n%s--- reference ---\n%s", got, want)
	}
	st := ss.ShardStats()
	if st[1].Accepted != 1 || st[1].Settled != 1 {
		t.Fatalf("shard 1 counters = %+v, want Accepted=1 Settled=1", st[1])
	}
}

// stallLink is a loopback link whose first Submit waits for release
// before it reaches the host, like a delivery stuck behind a slow fsync.
type stallLink struct {
	ShardTransport
	once             sync.Once
	entered, release chan struct{}
}

func (l *stallLink) Submit(ctx context.Context, rec Record) (SubmitResult, error) {
	l.once.Do(func() {
		close(l.entered)
		<-l.release
	})
	return l.ShardTransport.Submit(ctx, rec)
}

// awaitGate polls until shard 0 of s is settling with gated submissions
// held at its gate.
func awaitGate(t *testing.T, s *ShardedService, gated int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		settling, n := Gate(s, 0)
		if settling && n == gated {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("gate: settling=%v gated=%d, want settling with %d gated", settling, n, gated)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestShardedGatedSubmitPrecedesNextRound: a submission that arrives
// while a settlement round waits out a slow in-flight one is held at the
// shard's gate, and must be admitted before the next round freezes the
// batch. Otherwise settlements run back to back, as a clock catching up
// after a stall runs them, can hold a bid out until its start slot is
// settled and it is refused as retroactive.
func TestShardedGatedSubmitPrecedesNextRound(t *testing.T) {
	catalog := []sharedopt.Optimization{{ID: 1, Cost: econ.FromDollars(2)}}
	h, err := NewShardHost(sharedopt.Additive, catalog, 4, 0, 1, new(MemLog))
	if err != nil {
		t.Fatal(err)
	}
	link := &stallLink{ShardTransport: h, entered: make(chan struct{}), release: make(chan struct{})}
	ss, err := NewShardedServiceOver(sharedopt.Additive, catalog, 4, []ShardTransport{link}, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}

	stalled, advanced, gated := make(chan error, 1), make(chan error, 1), make(chan error, 1)
	go func() { stalled <- ss.SubmitAdditiveBid(1, shardBid(1)) }()
	<-link.entered
	go func() { _, err := ss.AdvanceSlot(); advanced <- err }()
	awaitGate(t, ss, 0)
	next := core.OnlineBid{User: 2, Start: 2, End: 2, Values: []econ.Money{econ.FromDollars(5)}}
	go func() { gated <- ss.SubmitAdditiveBid(1, next) }()
	awaitGate(t, ss, 1)
	close(link.release)
	if err := <-stalled; err != nil {
		t.Fatalf("stalled bid: %v", err)
	}
	if err := <-advanced; err != nil {
		t.Fatalf("first settlement: %v", err)
	}
	// The next round at once, before the held submission has run.
	if _, err := ss.AdvanceSlot(); err != nil {
		t.Fatalf("second settlement: %v", err)
	}
	if err := <-gated; err != nil {
		t.Fatalf("bid held at the gate for slot 2 refused after back-to-back settlements: %v", err)
	}
	if st := ss.ShardStats()[0]; st.Accepted != 2 || st.Settled != 2 {
		t.Fatalf("counters %+v, want both bids accepted and settled", st)
	}
}

// blockedLink holds every Submit and Advance until release, announcing
// each on entered, like a TCP shard whose calls run to their deadline.
type blockedLink struct {
	ShardTransport
	entered chan string
	release chan struct{}
}

func (l *blockedLink) Submit(ctx context.Context, rec Record) (SubmitResult, error) {
	l.entered <- "in-doubt resubmission"
	<-l.release
	return l.ShardTransport.Submit(ctx, rec)
}

func (l *blockedLink) Advance(ctx context.Context, window int) error {
	l.entered <- "advance marker"
	<-l.release
	return l.ShardTransport.Advance(ctx, window)
}

// TestShardReadersAnswerDuringSlowSettlement: while settlement waits on
// a slow shard's in-doubt resubmission or marker call, ShardStats and
// Wedged still answer at once instead of queueing behind the call.
func TestShardReadersAnswerDuringSlowSettlement(t *testing.T) {
	catalog := []sharedopt.Optimization{{ID: 1, Cost: econ.FromDollars(2)}}
	h, err := NewShardHost(sharedopt.Additive, catalog, 4, 0, 1, new(MemLog))
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewShardedServiceOver(sharedopt.Additive, catalog, 4, []ShardTransport{&lossyLink{ShardTransport: h, lose: 1}}, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.SubmitAdditiveBid(1, shardBid(1)); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("lost reply: %v, want ErrShardUnavailable", err)
	}
	link := &blockedLink{ShardTransport: h, entered: make(chan string), release: make(chan struct{})}
	SwapLink(ss, 0, link)

	advanced := make(chan error, 1)
	go func() { _, err := ss.AdvanceSlot(); advanced <- err }()
	for range 2 {
		call := <-link.entered
		answered := make(chan struct{})
		go func() {
			ss.ShardStats()
			ss.Wedged(0)
			close(answered)
		}()
		select {
		case <-answered:
		case <-time.After(time.Second):
			t.Errorf("ShardStats and Wedged blocked for 1s behind the %s", call)
		}
		link.release <- struct{}{}
	}
	if err := <-advanced; err != nil {
		t.Fatalf("settlement: %v", err)
	}
	if st := ss.ShardStats()[0]; st.Accepted != 1 || st.Settled != 1 {
		t.Fatalf("counters %+v, want the in-doubt bid accepted and settled", st)
	}
}
