package resilience_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sharedopt"
	"sharedopt/internal/core"
	"sharedopt/internal/econ"
	"sharedopt/internal/obs"
	. "sharedopt/internal/resilience"
	"sharedopt/internal/stats"
	"sharedopt/internal/tiercheck"
)

// driveShardedScript runs a fixed seeded workload — submissions, a few
// settlements, duplicates, an overload burst against a tiny batch bound,
// and a final close — against a fresh sharded tier, returning the
// service, its journals, the client-side outcome tally and the number of
// submissions.
func driveShardedScript(t *testing.T, shards int, reg *obs.Registry) (*ShardedService, []*MemLog, *tiercheck.Tally, int) {
	t.Helper()
	r := stats.NewRNG(99)
	logs, writers := tiercheck.MemWriters(shards)
	catalog := []sharedopt.Optimization{{ID: 1, Cost: econ.FromDollars(4)}}
	ss, err := NewShardedService(sharedopt.Additive, catalog, 6, writers,
		ShardedConfig{MaxBatch: 8, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	tally := tiercheck.NewTally()
	submitted := 0
	submit := func(u core.UserID, slot core.Slot, cents int64, dup bool) error {
		submitted++
		return tally.Submit(u, dup, Backoff{Attempts: 1}, func() error {
			return ss.SubmitAdditiveBid(1, core.OnlineBid{
				User: u, Start: slot, End: slot, Values: []econ.Money{econ.FromCents(cents)}})
		})
	}
	if err := submit(1, 1, 117, false); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	// An idempotent duplicate: journaled once, counted once.
	if err := submit(1, 1, 117, true); err != nil {
		t.Fatalf("duplicate submit: %v", err)
	}
	u := core.UserID(1)
	for slot := core.Slot(1); slot <= 3; slot++ {
		for k := 0; k < 30; k++ {
			u++
			submit(u, slot, int64(50+r.Intn(200)), false)
		}
		// One retroactive bid per later slot (mechanism-rejected).
		if slot > 1 {
			submit(u, 1, int64(50+r.Intn(200)), false)
		}
		if _, err := ss.AdvanceSlot(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ss.ClosePeriod(); err != nil {
		t.Fatal(err)
	}
	return ss, logs, tally, submitted
}

// Instrumentation must be pure bookkeeping: a sharded run with a
// registry attached produces byte-identical journals, invoices, and
// counters to the same run without one. This is the property that keeps
// figure CSVs and recovery behavior out of observability's blast radius
// — metrics can never change what is durable.
func TestObsChangesNoJournalBytes(t *testing.T) {
	for _, shards := range []int{1, 3} {
		bare, bareLogs, bareTally, _ := driveShardedScript(t, shards, nil)
		inst, instLogs, instTally, _ := driveShardedScript(t, shards, obs.NewRegistry())
		for i := range bareLogs {
			if !bytes.Equal(bareLogs[i].Bytes(), instLogs[i].Bytes()) {
				t.Fatalf("shards=%d: journal %d differs with obs attached", shards, i)
			}
		}
		if !reflect.DeepEqual(bare.Invoices(), inst.Invoices()) {
			t.Fatalf("shards=%d: invoices differ with obs attached", shards)
		}
		if b, i := bareTally.Total(), instTally.Total(); b != i {
			t.Fatalf("shards=%d: client outcomes differ: %+v vs %+v", shards, b, i)
		}
		if !reflect.DeepEqual(bare.ShardStats(), inst.ShardStats()) {
			t.Fatalf("shards=%d: shard counters differ with obs attached", shards)
		}
	}
}

// The obs counters must mirror ShardCounters exactly, per shard and in
// the tier aggregate, and reconcile with the client-side tally.
func TestShardedObsMirrorsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	const shards = 3
	ss, logs, tally, submitted := driveShardedScript(t, shards, reg)
	snap := reg.Snapshot()
	agg := ShardCounters{}
	for i, sc := range ss.ShardStats() {
		prefix := fmt.Sprintf("shard%d", i)
		for name, want := range map[string]uint64{
			prefix + ".accepted":   sc.Accepted,
			prefix + ".rejected":   sc.Rejected,
			prefix + ".overloaded": sc.Overloaded,
			prefix + ".read_only":  sc.ReadOnly,
			prefix + ".settled":    sc.Settled,
			prefix + ".wedged":     0,
		} {
			if got := snap.Counters[name]; got != want {
				t.Errorf("%s = %d, want %d", name, got, want)
			}
		}
		agg.Accepted += sc.Accepted
		agg.Rejected += sc.Rejected
		agg.Overloaded += sc.Overloaded
		agg.Settled += sc.Settled
	}
	for name, want := range map[string]uint64{
		"tier.accepted":   agg.Accepted,
		"tier.rejected":   agg.Rejected,
		"tier.overloaded": agg.Overloaded,
		"tier.settled":    agg.Settled,
		"tier.advances":   3,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	// The tier's counters must reconcile with the client's own tally, and
	// everything accepted was settled by the close.
	if err := tiercheck.Accounting(ss.ShardStats(), tally, submitted); err != nil {
		t.Fatal(err)
	}
	if err := tiercheck.Settled(ss.ShardStats()); err != nil {
		t.Fatal(err)
	}
	// Latency histograms observed every settlement and journal write.
	if n := snap.Hists["tier.advance_ns"].Count; n != 3 {
		t.Errorf("tier.advance_ns observed %d settlements, want 3", n)
	}
	// journal_group_records observes every write too, and its records
	// add up to the journal's.
	for i := 0; i < shards; i++ {
		name := fmt.Sprintf("shard%d.journal_write_ns", i)
		h, ok := snap.Hists[name]
		if !ok || h.Count == 0 {
			t.Errorf("%s missing or empty", name)
		}
		groups := snap.Hists[fmt.Sprintf("shard%d.journal_group_records", i)]
		recs, _, _ := ReadJournal(logs[i].Bytes())
		if groups.Count != h.Count || groups.Sum != int64(len(recs)) {
			t.Errorf("shard%d.journal_group_records: %d writes of %d records, want %d writes of %d",
				i, groups.Count, groups.Sum, h.Count, len(recs))
		}
	}
	// The batch high-water marks never exceed the configured bound.
	for i := 0; i < shards; i++ {
		if hw := snap.Gauges[fmt.Sprintf("shard%d.batch_highwater", i)]; hw == 0 || hw > 8 {
			t.Errorf("shard%d.batch_highwater = %d, want in (0, 8]", i, hw)
		}
	}
}

// A wedged shard increments the wedged counters exactly once and keeps
// counting read-only turn-aways.
func TestShardedObsWedgeCounting(t *testing.T) {
	reg := obs.NewRegistry()
	catalog := []sharedopt.Optimization{{ID: 1, Cost: econ.FromDollars(2)}}
	// Write 0 is the config record and the first bid, write 1 the second
	// bid.
	fw := NewFaultWriter(new(MemLog), FaultPlan{Kind: FaultErr, Record: 1})
	ss, err := NewShardedService(sharedopt.Additive, catalog, 4,
		[]io.Writer{fw}, ShardedConfig{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	submit := func(u core.UserID) error {
		return ss.SubmitAdditiveBid(1, core.OnlineBid{User: u, Start: 1, End: 1,
			Values: []econ.Money{econ.Dollar}})
	}
	if err := submit(1); err != nil {
		t.Fatal(err)
	}
	if err := submit(2); err == nil {
		t.Fatal("journal fault must surface")
	}
	if err := submit(3); err == nil {
		t.Fatal("wedged shard must refuse")
	}
	snap := reg.Snapshot()
	if got := snap.Counters["shard0.wedged"]; got != 1 {
		t.Fatalf("shard0.wedged = %d, want 1", got)
	}
	if got := snap.Counters["tier.wedged"]; got != 1 {
		t.Fatalf("tier.wedged = %d, want 1", got)
	}
	if got := snap.Counters["shard0.read_only"]; got != 2 {
		t.Fatalf("shard0.read_only = %d, want 2 (the faulted accept and the refusal)", got)
	}
}

// A recovered tier exports the same metrics as a fresh one: the
// per-shard and tier counters start from the replayed accepts, so
// tier.accepted equals the summed ShardStats().Accepted before and after
// a post-recovery submit, and journal writes are timed again.
func TestShardedRecoverExportsMetrics(t *testing.T) {
	const shards = 3
	catalog := []sharedopt.Optimization{{ID: 1, Cost: econ.FromDollars(4)}}
	logs, ws := tiercheck.MemWriters(shards)
	ss, err := NewShardedService(sharedopt.Additive, catalog, 6, ws, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	bid := func(u core.UserID, slot core.Slot) core.OnlineBid {
		return core.OnlineBid{User: u, Start: slot, End: slot, Values: []econ.Money{econ.Dollar}}
	}
	for u := core.UserID(1); u <= 12; u++ {
		slot := core.Slot(1)
		if u > 6 {
			slot = 2
		}
		if err := ss.SubmitAdditiveBid(1, bid(u, slot)); err != nil {
			t.Fatal(err)
		}
		if u == 6 {
			if _, err := ss.AdvanceSlot(); err != nil {
				t.Fatal(err)
			}
		}
	}

	reg := obs.NewRegistry()
	rec, err := RecoverShardedService(tiercheck.Journals(logs), ws, ShardedConfig{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string, wantAccepted uint64) {
		t.Helper()
		snap := reg.Snapshot()
		var sum uint64
		for i, sc := range rec.ShardStats() {
			sum += sc.Accepted
			if got := snap.Counters[fmt.Sprintf("shard%d.accepted", i)]; got != sc.Accepted {
				t.Errorf("%s: shard%d.accepted = %d, ShardStats says %d", when, i, got, sc.Accepted)
			}
		}
		if sum != wantAccepted {
			t.Errorf("%s: shards accepted %d, want %d", when, sum, wantAccepted)
		}
		if got := snap.Counters["tier.accepted"]; got != sum {
			t.Errorf("%s: tier.accepted = %d, want %d", when, got, sum)
		}
	}
	check("after recovery", 12)
	if err := rec.SubmitAdditiveBid(1, bid(13, 2)); err != nil {
		t.Fatal(err)
	}
	check("after a post-recovery submit", 13)
	if _, err := rec.AdvanceSlot(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["tier.settled"]; got != 13 {
		t.Errorf("tier.settled = %d, want 13", got)
	}
	writes := uint64(0)
	for i := 0; i < shards; i++ {
		writes += snap.Hists[fmt.Sprintf("shard%d.journal_write_ns", i)].Count
	}
	if writes == 0 {
		t.Error("no post-recovery journal write was timed")
	}
}

// flakyLink loses the reply of every k-th call after the shard has
// decided it, so concurrent submitters and settlement rounds see
// ErrShardUnavailable now and then. Safe for concurrent use.
type flakyLink struct {
	ShardTransport
	k     uint64
	calls atomic.Uint64
}

func (l *flakyLink) lose(err error) error {
	if err == nil && l.calls.Add(1)%l.k == 0 {
		return fmt.Errorf("%w: reply lost", ErrShardUnavailable)
	}
	return err
}

func (l *flakyLink) Submit(ctx context.Context, rec Record) (SubmitResult, error) {
	res, err := l.ShardTransport.Submit(ctx, rec)
	return res, l.lose(err)
}

func (l *flakyLink) Advance(ctx context.Context, window int) error {
	return l.lose(l.ShardTransport.Advance(ctx, window))
}

// Every snapshot taken while the tier is busy must satisfy
// tier.X == Σ_i shard<i>.X for all seven outcome classes: the tier
// counters are derived from the shard counters read in the same
// snapshot, so no interleaving of concurrent submitters, settlement
// rounds, wedges and lost replies can split them.
func TestShardedTierSumsExact(t *testing.T) {
	const shards, submitters, bidsEach = 4, 8, 250
	catalog := []sharedopt.Optimization{{ID: 1, Cost: econ.FromDollars(40)}}
	reg := obs.NewRegistry()
	links := make([]ShardTransport, shards)
	for i := range links {
		var w io.Writer = new(MemLog)
		if i == 3 {
			// Shard 3 wedges mid-run, moving wedged and read_only.
			w = NewFaultWriter(w, FaultPlan{Kind: FaultErr, Record: 150})
		}
		h, err := NewShardHost(sharedopt.Additive, catalog, 10_000, i, shards, w)
		if err != nil {
			t.Fatal(err)
		}
		links[i] = h
	}
	// Shard 1 loses replies, moving unavailable (the in-doubt bids are
	// resolved into accepted at the next settlement).
	links[1] = &flakyLink{ShardTransport: links[1], k: 13}
	ss, err := NewShardedServiceOver(sharedopt.Additive, catalog, 10_000, links,
		ShardedConfig{MaxBatch: 16, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < bidsEach; k++ {
				u := core.UserID(g*bidsEach + k + 1)
				tiercheck.Retry(func() error {
					// A one-slot lead keeps valid bids ahead of the ticker.
					slot := ss.Now() + 2
					if k%9 == 0 {
						slot -= 2 // already settled: rejected
					}
					return ss.SubmitAdditiveBid(1, core.OnlineBid{User: u, Start: slot, End: slot,
						Values: []econ.Money{econ.FromCents(int64(50 + k%200))}})
				})
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var settleWG sync.WaitGroup
	settleWG.Add(1)
	go func() {
		defer settleWG.Done()
		tk := time.NewTicker(200 * time.Microsecond)
		defer tk.Stop()
		for {
			select {
			case <-done:
				return
			case <-tk.C:
				ss.AdvanceSlot()
			}
		}
	}()

	classes := []string{"accepted", "rejected", "overloaded", "read_only", "unavailable", "settled", "wedged"}
	// split returns the first class whose tier counter is not the sum of
	// the shard counters in snap, or "".
	split := func(snap obs.Snapshot) string {
		for _, c := range classes {
			var sum uint64
			for i := 0; i < shards; i++ {
				sum += snap.Counters[fmt.Sprintf("shard%d.%s", i, c)]
			}
			if got := snap.Counters["tier."+c]; got != sum {
				return fmt.Sprintf("tier.%s = %d, shards sum to %d", c, got, sum)
			}
		}
		return ""
	}
	snapshots, bad, first := 0, 0, ""
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		snapshots++
		if msg := split(reg.Snapshot()); msg != "" {
			if bad++; first == "" {
				first = msg
			}
		}
	}
	settleWG.Wait()
	if bad > 0 {
		t.Errorf("%d of %d snapshots taken under load split tier.* from the shards; first: %s", bad, snapshots, first)
	}
	t.Logf("%d snapshots under load", snapshots)
	if err := tiercheck.Retry(func() error { _, err := ss.AdvanceSlot(); return err }); err != nil {
		t.Fatal(err)
	}
	final := reg.Snapshot()
	if msg := split(final); msg != "" {
		t.Errorf("quiesced: %s", msg)
	}
	for _, c := range classes {
		if final.Counters["tier."+c] == 0 {
			t.Errorf("tier.%s never moved; the workload must exercise every class: %v", c, final.Counters)
		}
	}
}

// TestShardedOpenAllocs pins what opening an unexported tier allocates:
// four shard hosts over MemLogs and the router over them, at the three
// benchmark workloads' shapes. Without a registry the router formats no
// metric names, and each shard keeps its seven outcome counters in one
// allocation.
func TestShardedOpenAllocs(t *testing.T) {
	for _, c := range []struct {
		kind    sharedopt.GameKind
		opts    int
		horizon core.Slot
		max     float64
	}{{sharedopt.Additive, 8, 12, 147}, {sharedopt.Additive, 16, 400, 229}, {sharedopt.Substitutive, 12, 400, 169}} {
		catalog := make([]sharedopt.Optimization, c.opts)
		for i := range catalog {
			catalog[i] = sharedopt.Optimization{ID: core.OptID(i + 1), Cost: 2 * econ.Dollar}
		}
		got := testing.AllocsPerRun(20, func() {
			links := make([]ShardTransport, 4)
			for i := range links {
				h, err := NewShardHost(c.kind, catalog, c.horizon, i, len(links), new(MemLog))
				if err != nil {
					t.Fatal(err)
				}
				links[i] = h
			}
			if _, err := NewShardedServiceOver(c.kind, catalog, c.horizon, links, ShardedConfig{}); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.max {
			t.Errorf("%v tier of %d optimizations: opening allocates %.0f times, want at most %.0f", c.kind, c.opts, got, c.max)
		}
	}
}
