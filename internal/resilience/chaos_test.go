package resilience_test

// Seeded fault sweeps over the sharded durable tier in process. Each
// round draws a tiercheck script, a shard count N from {1, 2, 4, 8}
// (N = 1 is the single-journal tier), independent per-shard journal
// fault plans and, in half the rounds, a process kill at a random
// cross-shard write. Each slot's bids reach a ShardedService with a
// small between-slots batch as one concurrent burst, a third of them
// blindly retrying overloads, before the slot settles. The surviving
// journals are then recovered together and the recovered period
// settled. Every round is checked against tiercheck's invariants.
//
// FuzzShardedChaos runs one round per input seed. go test runs the seed
// corpus; a soak (go test -run '^$' -fuzz FuzzShardedChaos -fuzztime 10m)
// draws further seeds and saves any failing one under testdata/fuzz/,
// where later plain go test runs replay it.

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"sharedopt"
	"sharedopt/internal/core"
	. "sharedopt/internal/resilience"
	"sharedopt/internal/stats"
	"sharedopt/internal/tiercheck"
)

// shardedChaosSeeds is FuzzShardedChaos's seed corpus.
var shardedChaosSeeds = []uint64{7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 1, 2, 3, 4, 5, 6}

func FuzzShardedChaos(f *testing.F) {
	for _, seed := range shardedChaosSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		report, err := shardedChaosRound(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		t.Logf("seed %d: %s", seed, report)
	})
}

// shardedRound is one round's seeded draw: the tier, its workload and
// its journal faults. r goes on to draw each submission's retry policy.
type shardedRound struct {
	r        *stats.RNG
	kind     sharedopt.GameKind
	catalog  []sharedopt.Optimization
	horizon  core.Slot
	sc       tiercheck.Script
	shards   int
	plans    []FaultPlan
	killAt   int // the group-wide write that kills the process; -1 for none
	killTear int
	cfg      ShardedConfig
}

func drawShardedRound(seed uint64) shardedRound {
	r := stats.NewRNG(seed ^ 0xdeadbeefcafef00d)
	d := shardedRound{r: r, kind: sharedopt.Additive, killAt: -1}
	if r.Intn(2) == 1 {
		d.kind = sharedopt.Substitutive
	}
	d.catalog = tiercheck.RandomCatalog(r, 2+r.Intn(2))
	d.horizon = core.Slot(3 + r.Intn(3))
	d.sc = tiercheck.NewScript(r.Uint64(), d.kind, d.catalog, d.horizon, 4, 11)
	d.shards = []int{1, 2, 4, 8}[r.Intn(4)]
	d.plans = RandomShardPlans(seed^0x517cc1b727220a95, d.shards, 16)
	if r.Intn(2) == 0 {
		d.killAt = r.Intn(32)
		d.killTear = r.Intn(10)
	}
	d.cfg = ShardedConfig{MaxBatch: 2 + r.Intn(4)}
	return d
}

// shardedChaosRound runs one seeded schedule against the sharded
// durable tier and checks the round's invariants, returning a one-line
// report.
func shardedChaosRound(seed uint64) (string, error) {
	d := drawShardedRound(seed)
	r, kind, sc, shards, plans, killAt, cfg := d.r, d.kind, d.sc, d.shards, d.plans, d.killAt, d.cfg
	group := NewCrashGroup()
	if killAt >= 0 {
		group.KillAtWrite(killAt, d.killTear)
	}

	logs, writers := tiercheck.MemWriters(shards)
	for i := range writers {
		writers[i] = NewFaultWriterInGroup(logs[i], plans[i], group)
	}
	// The constructor writes nothing: each shard's config record rides
	// its first group.
	ss, err := NewShardedService(kind, d.catalog, d.horizon, writers, cfg)
	if err != nil {
		return "", fmt.Errorf("constructor: %v", err)
	}

	tally := tiercheck.NewTally()
	offered := 0
	var slot []tiercheck.Op
	for _, op := range sc.Ops {
		switch op.Kind {
		case tiercheck.Dup:
			// Whether a duplicate is a no-op depends on whether its
			// original landed, which shed and wedged outcomes leave
			// open; the tally could not tell.
			continue
		case tiercheck.Submit, tiercheck.Revise, tiercheck.Invalid:
			slot = append(slot, op)
			continue
		}
		var wg sync.WaitGroup
		for _, op := range slot {
			b := Backoff{Attempts: 1}
			if r.Intn(3) == 0 {
				b = Backoff{Attempts: 4, Base: 50 * time.Microsecond, Cap: 200 * time.Microsecond}
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				tally.Submit(op.User, false, b, func() error { return sc.Submit(ss, op) })
			}()
		}
		wg.Wait()
		offered += len(slot)
		slot = slot[:0]
		var err error
		if op.Kind == tiercheck.Advance {
			_, err = ss.AdvanceSlot()
		} else {
			_, err = ss.ClosePeriod()
		}
		if errors.Is(err, ErrJournalBroken) {
			break // only a fully wedged tier refuses to settle
		} else if err != nil {
			return "", fmt.Errorf("settling slot %d: %v", ss.Now()+1, err)
		}
	}

	counters := ss.ShardStats()
	journals := tiercheck.Journals(logs)
	for _, err := range []error{tiercheck.Accounting(counters, tally, offered), tiercheck.Journaled(journals, counters)} {
		if err != nil {
			return "", err
		}
	}
	if empty(journals) {
		// Every shard's first group, config record included, faulted:
		// nothing was durable, and the checks above confirm nothing was
		// acknowledged.
		return fmt.Sprintf("shards=%d plan=%v killAt=%d: every first group faulted, nothing durable", shards, plans, killAt), nil
	}
	// The faults hit the live writers, not the logs, and one user only
	// ever reaches one shard, so recovery must reconcile every journal
	// without wedging.
	rec, err := tiercheck.RecoverTwice(journals, nil, cfg)
	if err != nil {
		return "", err
	}
	if !rec.Closed() {
		if _, err := rec.ClosePeriod(); err != nil {
			return "", fmt.Errorf("settling recovered period: %v", err)
		}
	}
	for _, err := range []error{tiercheck.Surplus(rec), tiercheck.Invoiced(journals, rec)} {
		if err != nil {
			return "", err
		}
	}

	t := tally.Total()
	return fmt.Sprintf("kind=%v shards=%d plan=%v killAt=%d bids=%d accepted=%d rejected=%d overloaded=%d readonly=%d wedged=%v surplus=%v",
		kind, shards, plans, killAt, offered, t.Accepted, t.Rejected, t.Shed, t.ReadOnly,
		ss.WedgedShards(), rec.Surplus()), nil
}

// empty reports whether no journal holds a record.
func empty(journals [][]Record) bool {
	for _, recs := range journals {
		if len(recs) > 0 {
			return false
		}
	}
	return true
}

// TestChaosCorpusCoversFaultKinds pins the seed corpus to the journal
// faults the sweep draws: across the corpus's drawn schedules there is a
// write error, a short write, a tearing crash and a group-wide process
// kill. It reads the draws, not the rounds' outcomes, so it cannot flake.
func TestChaosCorpusCoversFaultKinds(t *testing.T) {
	found := map[string]bool{}
	for _, seed := range shardedChaosSeeds {
		d := drawShardedRound(seed)
		for _, p := range d.plans {
			found[p.Kind.String()] = true
		}
		if d.killAt >= 0 {
			found["kill-at-write"] = true
		}
	}
	for _, want := range []string{FaultErr.String(), FaultShort.String(), FaultCrash.String(), "kill-at-write"} {
		if !found[want] {
			t.Errorf("no corpus seed draws %s (drawn: %v)", want, found)
		}
	}
}
