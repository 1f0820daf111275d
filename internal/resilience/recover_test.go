package resilience_test

// The crash-replay property of the single-journal tier (N = 1): for
// seeded additive and substitutive workload scripts, killing the tier at
// EVERY record boundary — and at every torn prefix of the next record —
// then recovering from the surviving bytes must reproduce invoices,
// revenue, cost, and the implemented set byte-identically to the
// uncrashed run at that same point. The uncrashed run is its own oracle:
// a snapshot string is taken after every journaled record, and each
// recovery is compared against the snapshot of its surviving prefix.

import (
	"errors"
	"fmt"
	"io"
	"testing"

	"sharedopt"
	"sharedopt/internal/core"
	"sharedopt/internal/econ"
	. "sharedopt/internal/resilience"
	"sharedopt/internal/stats"
	"sharedopt/internal/tiercheck"
)

// driveCrashWorkload runs a script strictly against a one-shard tier
// journaling to m, returning one state snapshot per journaled record
// (snaps[k] is the state after record k+1). Only a settlement marker
// changes the priced state, so a bid record repeats the snapshot before
// it.
func driveCrashWorkload(t *testing.T, sc tiercheck.Script, ss *ShardedService, m *MemLog) []string {
	t.Helper()
	snaps := []string{tiercheck.Snapshot(ss)} // after the config record
	padTo := func(n int) {
		for len(snaps) < n {
			snaps = append(snaps, snaps[len(snaps)-1])
		}
	}
	records := func() int {
		recs, _, torn := ReadJournal(m.Bytes())
		if torn {
			t.Fatal("live journal torn without fault injection")
		}
		return len(recs)
	}
	if _, err := tiercheck.Drive(ss, sc, tiercheck.Strict, tiercheck.Hooks{Settled: func() {
		padTo(records() - 1) // the marker just written is the last record
		snaps = append(snaps, tiercheck.Snapshot(ss))
	}}); err != nil {
		t.Fatal(err)
	}
	padTo(records())
	return snaps
}

// verifyCrashBoundaries recovers the journal image at every record
// boundary and at torn prefixes of each next record, comparing against
// the uncrashed run's snapshots. recover rebuilds state from a valid
// record prefix and renders its snapshot.
func verifyCrashBoundaries(t *testing.T, data []byte, snaps []string,
	recoverFn func(recs []Record) (string, error)) {
	t.Helper()
	bounds := RecordBoundaries(data)
	if len(bounds) != len(snaps) {
		t.Fatalf("have %d record boundaries but %d snapshots", len(bounds), len(snaps))
	}
	for k, end := range bounds {
		cuts := []int{end} // exact record boundary
		if k+1 < len(bounds) {
			next := bounds[k+1]
			cuts = append(cuts, end+1, (end+next)/2, next-1) // torn tails
		}
		for _, cut := range cuts {
			if cut <= 0 || cut > len(data) {
				continue
			}
			recs, _, _ := ReadJournal(data[:cut])
			if len(recs) != k+1 {
				t.Fatalf("cut %d: surviving prefix has %d records, want %d", cut, len(recs), k+1)
			}
			got, err := recoverFn(recs)
			if err != nil {
				t.Fatalf("cut %d (after record %d): recovery failed: %v", cut, k+1, err)
			}
			if got != snaps[k] {
				t.Fatalf("cut %d (after record %d): recovered state diverged\n--- recovered ---\n%s--- uncrashed ---\n%s",
					cut, k+1, got, snaps[k])
			}
		}
	}
}

// recoverOne recovers a one-shard tier from a single journal prefix.
func recoverOne(recs []Record, w io.Writer) (*ShardedService, error) {
	return RecoverShardedService([][]Record{recs}, []io.Writer{w}, ShardedConfig{})
}

func testRecoverServiceCrashReplay(t *testing.T, kind sharedopt.GameKind) {
	for seed := uint64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := stats.NewRNG(seed)
			catalog := tiercheck.RandomCatalog(r, 3)
			horizon := core.Slot(4 + r.Intn(5))
			var m MemLog
			ss, err := NewShardedService(kind, catalog, horizon, []io.Writer{&m}, ShardedConfig{})
			if err != nil {
				t.Fatal(err)
			}
			sc := tiercheck.NewScript(seed*7919+uint64(kind), kind, catalog, horizon, 1, 3)
			snaps := driveCrashWorkload(t, sc, ss, &m)
			data := m.Bytes()
			verifyCrashBoundaries(t, data, snaps, func(recs []Record) (string, error) {
				rec, err := recoverOne(recs, io.Discard)
				if err != nil {
					return "", err
				}
				return tiercheck.Snapshot(rec), nil
			})

			// A full recovery must also be able to continue operating:
			// replay everything into a truncated copy of the log and keep
			// journaling on it.
			var m2 MemLog
			if _, err := m2.Write(data); err != nil {
				t.Fatal(err)
			}
			recs, _, _ := ReadJournal(m2.Bytes())
			rec, err := recoverOne(recs, &m2)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Closed() {
				if _, err := rec.AdvanceSlot(); err != nil {
					t.Fatalf("recovered tier cannot continue: %v", err)
				}
			} else if _, err := rec.ClosePeriod(); err != nil {
				t.Fatalf("recovered closed tier: %v", err)
			}
		})
	}
}

func TestRecoverServiceCrashReplayAdditive(t *testing.T) {
	testRecoverServiceCrashReplay(t, sharedopt.Additive)
}

func TestRecoverServiceCrashReplaySubstitutive(t *testing.T) {
	testRecoverServiceCrashReplay(t, sharedopt.Substitutive)
}

// TestRecoverIdempotentDuplicateAfterRecovery checks the dedup digests
// survive shard recovery: a duplicate of a pre-crash bid is still a
// no-op on the recovered host.
func TestRecoverIdempotentDuplicateAfterRecovery(t *testing.T) {
	catalog := []sharedopt.Optimization{{ID: 1, Cost: econ.FromDollars(10)}}
	var m MemLog
	h, err := NewShardHost(sharedopt.Additive, catalog, 3, 0, 1, &m)
	if err != nil {
		t.Fatal(err)
	}
	bid := core.OnlineBid{User: 4, Start: 2, End: 2, Values: []econ.Money{econ.FromDollars(3)}}
	first, err := submitBid(h, bid)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, _ := ReadJournal(m.Bytes())
	rec, err := RecoverShardHost(recs, &m)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Len()
	dup, err := submitBid(rec, bid)
	if err != nil {
		t.Fatalf("duplicate after recovery: %v", err)
	}
	if dup.Fresh || dup.Seq != first.Seq {
		t.Fatalf("duplicate after recovery acknowledged as %+v, want the original %+v", dup, first)
	}
	if m.Len() != before {
		t.Fatal("duplicate after recovery appended a record")
	}
	// A genuine revision (raised value) is NOT a duplicate and must
	// journal a new record.
	raised := core.OnlineBid{User: 4, Start: 2, End: 2, Values: []econ.Money{econ.FromDollars(5)}}
	if res, err := submitBid(rec, raised); err != nil || !res.Fresh {
		t.Fatalf("revision after recovery: %+v, %v", res, err)
	}
	if m.Len() == before {
		t.Fatal("revision was swallowed as a duplicate")
	}
}

// TestRecoverRejectsWrongJournalType ensures shard and tier recovery
// refuse a journal that does not open with a shard config record, and
// an empty one.
func TestRecoverRejectsWrongJournalType(t *testing.T) {
	foreign := shardedRecordSeq([]Record{
		{Kind: "svc", Game: "additive", Horizon: 2, Opts: []OptCost{{ID: 1, Cost: econ.FromDollars(10)}}},
		{Kind: KindAdvanceSlot},
	})
	if _, err := RecoverShardHost(foreign, io.Discard); err == nil {
		t.Fatal("RecoverShardHost accepted a journal without a shard config")
	}
	if _, err := recoverOne(foreign, io.Discard); err == nil {
		t.Fatal("RecoverShardedService accepted a journal without a shard config")
	}
	if _, err := RecoverShardHost(nil, io.Discard); !errors.Is(err, ErrEmptyJournal) {
		t.Fatal("empty journal not rejected")
	}
}
