package main

// Chaos mode (-chaos): seeded fault sweeps over the sharded durable tier
// in process. Each round draws a tiercheck script, a shard count N from
// {1, 2, 4, 8} (N = 1 is the single-journal tier), independent per-shard
// journal fault plans and, in half the rounds, a process kill at a random
// cross-shard write. Each slot's bids reach a ShardedService with a small
// between-slots batch as one concurrent burst, a third of them blindly
// retrying overloads, before the slot settles. The surviving journals are
// then recovered together and the recovered period settled. Every round
// is checked against tiercheck's invariants; a violation fails the
// command, naming the round and the seed that reproduces it.

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"sharedopt"
	"sharedopt/internal/core"
	"sharedopt/internal/resilience"
	"sharedopt/internal/stats"
	"sharedopt/internal/tiercheck"
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
// durable tier and checks the round's invariants.
func shardedChaosRound(seed uint64) (string, error) {
	r := stats.NewRNG(seed ^ 0xdeadbeefcafef00d)
	kind := sharedopt.Additive
	if r.Intn(2) == 1 {
		kind = sharedopt.Substitutive
	}
	catalog := tiercheck.RandomCatalog(r, 2+r.Intn(2))
	horizon := core.Slot(3 + r.Intn(3))
	sc := tiercheck.NewScript(r.Uint64(), kind, catalog, horizon, 4, 11)
	shards := []int{1, 2, 4, 8}[r.Intn(4)]
	plans := resilience.RandomShardPlans(seed^0x517cc1b727220a95, shards, 16)
	group := resilience.NewCrashGroup()
	killAt := -1
	if r.Intn(2) == 0 {
		killAt = r.Intn(32)
		group.KillAtWrite(killAt, r.Intn(10))
	}
	cfg := resilience.ShardedConfig{MaxBatch: 2 + r.Intn(4)}

	logs, writers := tiercheck.MemWriters(shards)
	for i := range writers {
		writers[i] = resilience.NewFaultWriterInGroup(logs[i], plans[i], group)
	}
	// The constructor writes nothing: each shard's config record rides
	// its first group.
	ss, err := resilience.NewShardedService(kind, catalog, horizon, writers, cfg)
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
			b := resilience.Backoff{Attempts: 1}
			if r.Intn(3) == 0 {
				b = resilience.Backoff{Attempts: 4, Base: 50 * time.Microsecond, Cap: 200 * time.Microsecond}
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
		if errors.Is(err, resilience.ErrJournalBroken) {
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
func empty(journals [][]resilience.Record) bool {
	for _, recs := range journals {
		if len(recs) > 0 {
			return false
		}
	}
	return true
}
