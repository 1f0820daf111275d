package tiercheck

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"sharedopt"
	"sharedopt/internal/core"
	"sharedopt/internal/econ"
	"sharedopt/internal/resilience"
)

var testCatalog = []sharedopt.Optimization{{ID: 1, Cost: econ.FromCents(900)}, {ID: 2, Cost: econ.FromCents(1500)}}

// cleanRun drives a seeded script strictly through a fresh tier of n
// shards and returns the tier, its journals and the client tally.
func cleanRun(t *testing.T, kind sharedopt.GameKind, n int) (*resilience.ShardedService, Script, [][]resilience.Record, *Tally) {
	t.Helper()
	sc := NewScript(3, kind, testCatalog, 5, 2, 4)
	logs, ws := MemWriters(n)
	ss, err := resilience.NewShardedService(kind, testCatalog, sc.Horizon, ws, resilience.ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tally, err := Drive(ss, sc, Strict, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	return ss, sc, Journals(logs), tally
}

// TestScriptCoversEveryOp: across a few seeds the generator draws every
// op kind, end-extending revisions and multi-optimization substitute
// sets, and only ever revises bids that start after the current slot.
func TestScriptCoversEveryOp(t *testing.T) {
	seen := map[string]bool{}
	for seed := uint64(1); seed <= 8; seed++ {
		sc := NewScript(seed, sharedopt.Substitutive, testCatalog, 6, 1, 3)
		latest := map[core.UserID]Op{}
		now := core.Slot(0)
		for _, op := range sc.Ops {
			seen[op.Kind.String()] = true
			switch op.Kind {
			case Advance:
				now++
			case Submit:
				if len(op.Set) > 1 {
					seen["multi-optimization set"] = true
				}
			case Revise:
				prev := latest[op.User]
				if op.Start != prev.Start || op.Start <= now {
					t.Fatalf("seed %d: revision %+v of %+v at slot %d", seed, op, prev, now)
				}
				if op.End > prev.End {
					seen["end-extending revision"] = true
				}
			}
			if op.Kind == Submit || op.Kind == Revise {
				latest[op.User] = op
			}
		}
	}
	for _, want := range []string{"submit", "dup", "revise", "invalid", "advance", "close", "multi-optimization set", "end-extending revision"} {
		if !seen[want] {
			t.Errorf("no script drew a %s", want)
		}
	}
}

// fakeState is a settled tier with chosen invoices and surplus.
type fakeState struct {
	State
	surplus  econ.Money
	invoices map[core.UserID]econ.Money
}

func (f fakeState) Surplus() econ.Money                  { return f.surplus }
func (f fakeState) Invoices() map[core.UserID]econ.Money { return f.invoices }

func bidRecord(u core.UserID) resilience.Record {
	return resilience.Record{Kind: resilience.KindAdditiveBid, Opt: 1, User: u, Start: 1, End: 1,
		Values: []econ.Money{econ.FromDollars(9)}}
}

// withSeqs numbers a hand-built journal.
func withSeqs(recs ...resilience.Record) []resilience.Record {
	for i := range recs {
		recs[i].Seq = uint64(i + 1)
	}
	return recs
}

// TestChecksReportPlantedViolations: every check passes on a clean run
// of either game and reports one planted violation each, naming the
// shard or user at fault.
func TestChecksReportPlantedViolations(t *testing.T) {
	for _, kind := range []sharedopt.GameKind{sharedopt.Substitutive, sharedopt.Additive} {
		ss, sc, journals, tally := cleanRun(t, kind, 3)
		rec, err := RecoverTwice(journals, nil, resilience.ShardedConfig{})
		if err != nil {
			t.Fatalf("kind=%v: %v", kind, err)
		}
		counters := ss.ShardStats()
		for _, err := range []error{
			Accounting(counters, tally, sc.Bids()), Settled(counters), Journaled(journals, counters),
			Invoiced(journals, rec), Surplus(rec),
		} {
			if err != nil {
				t.Fatalf("kind=%v: clean run: %v", kind, err)
			}
		}
	}

	ss, sc, journals, tally := cleanRun(t, sharedopt.Additive, 2)
	counters := ss.ShardStats()
	bump := func(i int, f func(*resilience.ShardCounters)) []resilience.ShardCounters {
		c := append([]resilience.ShardCounters(nil), counters...)
		f(&c[i])
		return c
	}
	var u core.UserID // a user journaled on shard 1
	for _, rec := range journals[1] {
		if isBid(rec) {
			u = rec.User
		}
	}

	inDoubt := NewTally()
	inDoubt.Submit(7, false, resilience.Backoff{Attempts: 1}, func() error {
		return fmt.Errorf("reply lost: %w", resilience.ErrShardUnavailable)
	})

	// A diverged journal set (one user's curve split across two shards,
	// revised downward) recovers with a wedged shard.
	cfg := make([]resilience.Record, 2)
	for i := range cfg {
		cfg[i] = journals[i][0]
	}
	low := bidRecord(3)
	low.Values = []econ.Money{econ.FromDollars(1)}
	diverged := [][]resilience.Record{
		withSeqs(cfg[0], bidRecord(3), resilience.Record{Kind: resilience.KindAdvanceSlot}),
		withSeqs(cfg[1], low, resilience.Record{Kind: resilience.KindAdvanceSlot}),
	}

	// Two recoveries of different journal prefixes stand in for a
	// nondeterministic recovery.
	calls := 0
	flaky := func(ws []io.Writer) (*resilience.ShardedService, error) {
		calls++
		js := journals
		if calls == 2 {
			js = [][]resilience.Record{journals[0][:1], journals[1][:1]}
		}
		return resilience.RecoverShardedService(js, ws, resilience.ShardedConfig{})
	}
	_, nondeterministic := recoverTwice(flaky, nil, 2)
	_, wedged := RecoverTwice(diverged, nil, resilience.ShardedConfig{})

	unpriced := fakeState{invoices: ss.Invoices()}
	delete(unpriced.invoices, u)

	for _, c := range []struct {
		name string
		err  error
		want string
	}{
		{"leaked outcome", Accounting(counters, tally, sc.Bids()+1), "leak"},
		{"submission in doubt", Accounting(counters, inDoubt, 1), "user 7 (shard 1)"},
		{"accepted counter off", Accounting(bump(1, func(c *resilience.ShardCounters) { c.Accepted++ }), tally, sc.Bids()), "shard 1: accepted, rejected, overloaded, read-only counters"},
		{"settled != accepted", Settled(bump(1, func(c *resilience.ShardCounters) { c.Settled-- })), "shard 1 settled"},
		{"pending after close", Settled(bump(0, func(c *resilience.ShardCounters) { c.Pending = 2 })), "shard 0 still pending"},
		{"journal bid count", Journaled(journals, bump(1, func(c *resilience.ShardCounters) { c.Accepted++ })), "shard 1 journal holds"},
		{"user on two shards", Journaled([][]resilience.Record{{bidRecord(5)}, {bidRecord(5)}},
			[]resilience.ShardCounters{{Accepted: 1}, {Accepted: 1}}), "user 5 journaled on shards 0 and 1"},
		{"recoveries differ", nondeterministic, "nondeterministic"},
		{"recovery wedged", wedged, "wedged shard 1"},
		{"journaled user unpriced", Invoiced(journals, unpriced), fmt.Sprintf("user %d's journaled bid (shard 1)", u)},
		{"negative surplus", Surplus(fakeState{surplus: -econ.Cent}), "negative settled surplus"},
	} {
		if c.err == nil || !strings.Contains(c.err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, c.err, c.want)
		}
	}
	if !errors.Is(wedged, resilience.ErrPolicyDiverged) {
		t.Errorf("wedged recovery error %v does not carry the wedge cause", wedged)
	}
}
