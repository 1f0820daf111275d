package resilience_test

// The sharded crash-replay property: killing the whole tier (all N
// journals at once, via a CrashGroup — process-death semantics) at
// EVERY global write index, with and without a torn tail — torn inside
// a record and at each record boundary of a multi-record group — or
// failing that write's sync and killing the tier at the next write, then
// recovering from the surviving journal prefixes must yield (a) a
// deterministic state — two recoveries of the same journals agree byte
// for byte — with every journal rolled forward to one common frontier,
// and (b) a tier that, after blindly re-driving the full workload
// script (lost submissions land fresh, surviving ones dedup, settled
// slots skip), finishes byte-identical to the run that never crashed.

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

// journalFrontier summarizes one journal: adv markers and close marker.
func journalFrontier(t *testing.T, m *MemLog) (advs int, closed bool) {
	t.Helper()
	recs, _, torn := ReadJournal(m.Bytes())
	if torn {
		t.Fatal("journal torn after recovery truncated and resumed it")
	}
	for _, rec := range recs {
		switch rec.Kind {
		case KindAdvanceSlot:
			advs++
		case KindClosePeriod:
			closed = true
		}
	}
	return advs, closed
}

// oracleWrite is one journal write of the uncrashed run: the shard it
// went to, its index among that shard's writes, and the byte offset just
// past each record it carried.
type oracleWrite struct {
	shard, local int
	bounds       []int
}

// writeRecorder notes every write it forwards, in global order.
type writeRecorder struct {
	w      io.Writer
	shard  int
	writes *[]oracleWrite
}

func (r writeRecorder) Write(p []byte) (int, error) {
	local := 0
	for _, w := range *r.writes {
		if w.shard == r.shard {
			local++
		}
	}
	*r.writes = append(*r.writes, oracleWrite{shard: r.shard, local: local, bounds: RecordBoundaries(p)})
	return r.w.Write(p)
}

// crashCase is one faulted rerun of the sweep: the whole tier dies at
// global write kill with tear bytes of it reaching the log, and, when
// sync is set, the write before the kill fails its sync instead.
type crashCase struct {
	kill, tear int
	sync       *oracleWrite
}

func (c crashCase) String() string {
	if c.sync != nil {
		return fmt.Sprintf("sync-error@write%d", c.kill-1)
	}
	return fmt.Sprintf("kill=%d tear=%d", c.kill, c.tear)
}

// crashCases lists the reruns for each oracle write: torn at 0 and 9
// bytes, torn at each record boundary inside a multi-record group, and
// a failed sync followed by death at the next write.
func crashCases(writes []oracleWrite) []crashCase {
	var cases []crashCase
	for kill, w := range writes {
		cases = append(cases, crashCase{kill: kill, tear: 0}, crashCase{kill: kill, tear: 9})
		for _, b := range w.bounds[:len(w.bounds)-1] {
			cases = append(cases, crashCase{kill: kill, tear: b})
		}
		cases = append(cases, crashCase{kill: kill + 1, sync: &writes[kill]})
	}
	return cases
}

func testShardedCrashRecover(t *testing.T, kind sharedopt.GameKind, shards int, seed uint64) {
	r := stats.NewRNG(seed)
	catalog := tiercheck.RandomCatalog(r, 3)
	horizon := core.Slot(3 + r.Intn(3))
	sc := tiercheck.NewScript(seed*1471+uint64(kind)+uint64(shards), kind, catalog, horizon, 1, 3)

	// Uncrashed oracle run, instrumented only to record its writes. The
	// script is driven one op at a time, so the reruns write the same
	// groups in the same order up to the fault.
	logs, ws := tiercheck.MemWriters(shards)
	var writes []oracleWrite
	for i := range ws {
		ws[i] = writeRecorder{w: logs[i], shard: i, writes: &writes}
	}
	ss, err := NewShardedService(kind, catalog, horizon, ws, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tiercheck.Drive(ss, sc, tiercheck.Strict, tiercheck.Hooks{}); err != nil {
		t.Fatal(err)
	}
	final := tiercheck.Snapshot(ss)

	for _, c := range crashCases(writes) {
		logs, rws := tiercheck.MemWriters(shards)
		g := NewCrashGroup()
		g.KillAtWrite(c.kill, c.tear)
		ws := make([]io.Writer, shards)
		for i := range ws {
			var plan FaultPlan
			if c.sync != nil && c.sync.shard == i {
				plan = FaultPlan{Kind: FaultSync, Record: c.sync.local}
			}
			ws[i] = NewFaultWriterInGroup(logs[i], plan, g)
		}
		crashed, err := NewShardedService(kind, catalog, horizon, ws, ShardedConfig{})
		if err != nil {
			t.Fatalf("%v: constructor: %v", c, err)
		}
		// Drive until the process dies; errors are the crash.
		if _, err := tiercheck.Drive(crashed, sc, tiercheck.Tolerant, tiercheck.Hooks{}); err != nil {
			t.Fatal(err)
		}
		// A failed sync wedges its shard, after which the tier may write
		// nothing more; a kill must fire.
		if c.sync != nil {
			if err := crashed.Wedged(c.sync.shard); !errors.Is(err, ErrShardWedged) {
				t.Fatalf("%v: shard %d not wedged: %v", c, c.sync.shard, err)
			}
		} else if !g.Crashed() {
			t.Fatalf("%v: schedule never reached the kill write", c)
		}

		// Recover from the surviving prefixes, the way OpenFileLog
		// would: parse, truncate the torn tail, resume appending.
		// Recovery must be deterministic: a second recovery of the
		// same journals yields the identical state.
		journals := tiercheck.Journals(logs)
		allEmpty := true
		for _, recs := range journals {
			allEmpty = allEmpty && len(recs) == 0
		}
		rec1, err := tiercheck.RecoverTwice(journals, rws, ShardedConfig{})
		if err != nil {
			if allEmpty && errors.Is(err, ErrEmptyJournal) {
				continue // nothing was ever acknowledged; nothing to recover
			}
			t.Fatalf("%v: %v", c, err)
		}

		// Frontier reconciliation: every journal now agrees on the
		// adv count and close marker.
		wantAdvs, wantClosed := journalFrontier(t, logs[0])
		for i := 1; i < shards; i++ {
			advs, closed := journalFrontier(t, logs[i])
			if advs != wantAdvs || closed != wantClosed {
				t.Fatalf("%v: shard %d rolled to (advs=%d closed=%v), shard 0 to (advs=%d closed=%v)",
					c, i, advs, closed, wantAdvs, wantClosed)
			}
		}
		if got := int(rec1.Now()); got != wantAdvs {
			t.Fatalf("%v: recovered Now()=%d but journals hold %d adv markers", c, got, wantAdvs)
		}

		// Continuation: blindly re-driving the whole script must end
		// byte-identical to the run that never crashed.
		if _, err := tiercheck.Drive(rec1, sc, tiercheck.Tolerant, tiercheck.Hooks{}); err != nil {
			t.Fatal(err)
		}
		if got := tiercheck.Snapshot(rec1); got != final {
			t.Fatalf("%v: continuation diverged from the uncrashed run\n--- recovered+continued ---\n%s--- uncrashed ---\n%s",
				c, got, final)
		}

	}
}

// TestShardedCrashRecoverEveryWrite is the tentpole crash property, at
// every shard count the identity property covers.
func TestShardedCrashRecoverEveryWrite(t *testing.T) {
	for _, kind := range []sharedopt.GameKind{sharedopt.Additive, sharedopt.Substitutive} {
		for _, n := range []int{1, 2, 4, 8} {
			for seed := uint64(1); seed <= 2; seed++ {
				t.Run(fmt.Sprintf("kind=%v/shards=%d/seed=%d", kind, n, seed), func(t *testing.T) {
					testShardedCrashRecover(t, kind, n, seed)
				})
			}
		}
	}
}

// TestShardedRecoverRollForward pins the frontier rule on a handcrafted
// schedule: the crash lands exactly on shard 1's adv marker, so shard 0
// acknowledged the advance and shard 1 did not. Recovery must roll
// shard 1 forward (its tail belongs to the advanced window), matching
// the live tier's post-advance state.
func TestShardedRecoverRollForward(t *testing.T) {
	const n = 2
	catalog := []sharedopt.Optimization{{ID: 1, Cost: econ.FromDollars(2)}}
	logs, rws := tiercheck.MemWriters(n)
	g := NewCrashGroup()
	// Writes: 0,1 = each shard's config record grouped with its bid;
	// 2 = shard 0 adv; 3 = shard 1 adv — the kill write.
	g.KillAtWrite(3, 0)
	ws := make([]io.Writer, n)
	for i := range ws {
		ws[i] = NewFaultWriterInGroup(logs[i], FaultPlan{}, g)
	}
	ss, err := NewShardedService(sharedopt.Additive, catalog, 4, ws, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	u0 := userOnShard(0, n, 0)
	u1 := userOnShard(1, n, 0)
	if err := ss.SubmitAdditiveBid(1, shardBid(u0)); err != nil {
		t.Fatal(err)
	}
	if err := ss.SubmitAdditiveBid(1, shardBid(u1)); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.AdvanceSlot(); err != nil {
		t.Fatalf("advance with one durable marker must be acknowledged, got %v", err)
	}
	if !g.Crashed() {
		t.Fatal("kill write never happened")
	}
	if err := ss.Wedged(1); !errors.Is(err, ErrShardWedged) {
		t.Fatalf("shard 1 not wedged after its marker write died: %v", err)
	}
	live := tiercheck.Snapshot(ss)

	journals := tiercheck.Journals(logs)
	if advs, _ := journalFrontier(t, logs[1]); advs != 0 {
		t.Fatalf("shard 1 journal holds %d adv markers before recovery, want 0", advs)
	}
	rec, err := RecoverShardedService(journals, rws, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := tiercheck.Snapshot(rec); got != live {
		t.Fatalf("recovered state diverged from the live post-advance state\n--- recovered ---\n%s--- live ---\n%s", got, live)
	}
	if advs, _ := journalFrontier(t, logs[1]); advs != 1 {
		t.Fatalf("shard 1 journal holds %d adv markers after recovery, want 1 (rolled forward)", advs)
	}
	if _, ok := rec.Invoice(u1); !ok {
		t.Fatal("behind shard's durable bid was not settled by the roll-forward")
	}
}

// shardedTestJournals builds a clean pair of handcrafted shard journals
// over one catalog, for the corrupt-input tests.
func shardedRecordSeq(recs []Record) []Record {
	for i := range recs {
		recs[i].Seq = uint64(i + 1)
	}
	return recs
}

// TestShardedRecoverConfigValidation rejects journals that disagree on
// the tier shape.
func TestShardedRecoverConfigValidation(t *testing.T) {
	catalog := []sharedopt.Optimization{{ID: 1, Cost: econ.FromDollars(2)}}
	cfg := func(i, n int) Record {
		return ShardConfigRecord(sharedopt.Additive, catalog, 4, i, n)
	}
	dws := func(n int) []io.Writer { _, ws := tiercheck.MemWriters(n); return ws }

	// Journals passed out of order.
	j := [][]Record{
		shardedRecordSeq([]Record{cfg(1, 2)}),
		shardedRecordSeq([]Record{cfg(0, 2)}),
	}
	if _, err := RecoverShardedService(j, dws(2), ShardedConfig{}); err == nil {
		t.Fatal("out-of-order journals recovered")
	}

	// Shard count mismatch: a 2-shard journal recovered as a 1-shard tier.
	j = [][]Record{shardedRecordSeq([]Record{cfg(0, 2)})}
	if _, err := RecoverShardedService(j, dws(1), ShardedConfig{}); err == nil {
		t.Fatal("shard-count mismatch recovered")
	}

	// Tier config disagreement: different horizons.
	other := ShardConfigRecord(sharedopt.Additive, catalog, 7, 1, 2)
	j = [][]Record{
		shardedRecordSeq([]Record{cfg(0, 2)}),
		shardedRecordSeq([]Record{other}),
	}
	if _, err := RecoverShardedService(j, dws(2), ShardedConfig{}); err == nil {
		t.Fatal("conflicting tier configs recovered")
	}

	// A closed shard behind the frontier contradicts the protocol.
	j = [][]Record{
		shardedRecordSeq([]Record{cfg(0, 2), {Kind: KindClosePeriod}}),
		shardedRecordSeq([]Record{cfg(1, 2), {Kind: KindAdvanceSlot}}),
	}
	if _, err := RecoverShardedService(j, dws(2), ShardedConfig{}); err == nil {
		t.Fatal("closed-behind-frontier journals recovered")
	}
}

// TestShardedRecoverEmptyShardJournal: an empty journal is a creation
// crash — nothing on that shard was ever acknowledged — so recovery
// re-seeds it and the shard serves again.
func TestShardedRecoverEmptyShardJournal(t *testing.T) {
	const n = 2
	catalog := []sharedopt.Optimization{{ID: 1, Cost: econ.FromDollars(2)}}
	logs, ws := tiercheck.MemWriters(n)
	ss, err := NewShardedService(sharedopt.Additive, catalog, 4, ws, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	u0 := userOnShard(0, n, 0)
	if err := ss.SubmitAdditiveBid(1, shardBid(u0)); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.AdvanceSlot(); err != nil {
		t.Fatal(err)
	}

	recs0, _, _ := ReadJournal(logs[0].Bytes())
	fresh := &MemLog{}
	rec, err := RecoverShardedService([][]Record{recs0, nil}, []io.Writer{io.Discard, fresh}, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := tiercheck.Snapshot(rec); got != tiercheck.Snapshot(ss) {
		t.Fatal("recovery with one creation-crashed shard diverged")
	}
	// The re-seeded journal holds its config and was rolled forward to
	// the frontier.
	recs1, _, torn := ReadJournal(fresh.Bytes())
	if torn || len(recs1) == 0 || recs1[0].Kind != KindShardConfig || recs1[0].Shard != 1 {
		t.Fatalf("re-seeded journal malformed: torn=%v recs=%+v", torn, recs1)
	}
	if advs, _ := journalFrontier(t, fresh); advs != 1 {
		t.Fatalf("re-seeded journal holds %d adv markers, want 1", advs)
	}
	// And the shard accepts new bids.
	u1 := userOnShard(1, n, 0)
	bid := core.OnlineBid{User: u1, Start: 2, End: 2, Values: []econ.Money{econ.FromDollars(3)}}
	if err := rec.SubmitAdditiveBid(1, bid); err != nil {
		t.Fatalf("re-seeded shard rejected a bid: %v", err)
	}
}

// TestShardedRecoverPolicyDiverged: journals whose accepted histories
// cannot coexist under the global policy (the same user's curve split
// across two shards, revised downward) wedge the offending shard with
// ErrPolicyDiverged — at fold time, live or during recovery — instead
// of failing the tier.
func TestShardedRecoverPolicyDiverged(t *testing.T) {
	catalog := []sharedopt.Optimization{{ID: 1, Cost: econ.FromDollars(2)}}
	high := AdditiveBidRecord(1, core.OnlineBid{User: 3, Start: 1, End: 1, Values: []econ.Money{econ.FromDollars(9)}})
	low := AdditiveBidRecord(1, core.OnlineBid{User: 3, Start: 1, End: 1, Values: []econ.Money{econ.FromDollars(1)}})
	cfg := func(i int) Record { return ShardConfigRecord(sharedopt.Additive, catalog, 4, i, 2) }

	// Divergence inside a settled window: detected during recovery.
	j := [][]Record{
		shardedRecordSeq([]Record{cfg(0), high, {Kind: KindAdvanceSlot}}),
		shardedRecordSeq([]Record{cfg(1), low, {Kind: KindAdvanceSlot}}),
	}
	rec, err := RecoverShardedService(j, []io.Writer{io.Discard, io.Discard}, ShardedConfig{})
	if err != nil {
		t.Fatalf("divergence must degrade, not fail recovery: %v", err)
	}
	if w := rec.WedgedShards(); len(w) != 1 || w[0] != 1 {
		t.Fatalf("WedgedShards() = %v, want [1]", w)
	}
	werr := rec.Wedged(1)
	if !errors.Is(werr, ErrPolicyDiverged) || !errors.Is(werr, ErrShardWedged) {
		t.Fatalf("Wedged(1) = %v, want ErrPolicyDiverged wrapped in ErrShardWedged", werr)
	}
	// The healthy shard's bid settled; the tier still advances.
	if _, ok := rec.Invoice(3); !ok {
		t.Fatal("healthy shard's accepted bid was not settled")
	}

	// Divergence in the open window: detected at the next live fold.
	j = [][]Record{
		shardedRecordSeq([]Record{cfg(0), high}),
		shardedRecordSeq([]Record{cfg(1), low}),
	}
	rec, err = RecoverShardedService(j, []io.Writer{io.Discard, io.Discard}, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if w := rec.WedgedShards(); len(w) != 0 {
		t.Fatalf("open-window divergence wedged %v before any fold", w)
	}
	if _, err := rec.AdvanceSlot(); err != nil {
		t.Fatalf("advance: %v", err)
	}
	if werr := rec.Wedged(1); !errors.Is(werr, ErrPolicyDiverged) {
		t.Fatalf("live fold did not catch the divergence: %v", werr)
	}

	// Determinism: recovering the settled-window case twice agrees, down
	// to which shard wedged.
	diverged := [][]Record{
		shardedRecordSeq([]Record{cfg(0), high, {Kind: KindAdvanceSlot}}),
		shardedRecordSeq([]Record{cfg(1), low, {Kind: KindAdvanceSlot}}),
	}
	r1, err := RecoverShardedService(diverged, []io.Writer{io.Discard, io.Discard}, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RecoverShardedService(diverged, []io.Writer{io.Discard, io.Discard}, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if tiercheck.Snapshot(r1) != tiercheck.Snapshot(r2) {
		t.Fatal("degraded recovery is nondeterministic")
	}
	w1, w2 := r1.WedgedShards(), r2.WedgedShards()
	if len(w1) != 1 || len(w2) != 1 || w1[0] != w2[0] {
		t.Fatalf("degraded recovery wedged different shards: %v vs %v", w1, w2)
	}
}

// TestShardedDuplicateAfterRecovery: the dedup digests survive
// recovery per shard, so a blind resubmission of an already-settled bid
// stays a no-op and is not double-priced.
func TestShardedDuplicateAfterRecovery(t *testing.T) {
	const n = 4
	catalog := []sharedopt.Optimization{{ID: 1, Cost: econ.FromDollars(2)}}
	logs, ws := tiercheck.MemWriters(n)
	ss, err := NewShardedService(sharedopt.Additive, catalog, 4, ws, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	u := userOnShard(2, n, 0)
	if err := ss.SubmitAdditiveBid(1, shardBid(u)); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.AdvanceSlot(); err != nil {
		t.Fatal(err)
	}
	want := tiercheck.Snapshot(ss)

	rec, err := RecoverShardedService(tiercheck.Journals(logs), ws, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.SubmitAdditiveBid(1, shardBid(u)); err != nil {
		t.Fatalf("duplicate after recovery rejected: %v", err)
	}
	st := rec.ShardStats()
	if st[2].Pending != 0 || st[2].Accepted != 1 {
		t.Fatalf("duplicate after recovery was re-batched: %+v", st[2])
	}
	if got := tiercheck.Snapshot(rec); got != want {
		t.Fatalf("recovered state diverged\n--- recovered ---\n%s--- live ---\n%s", got, want)
	}
	// Re-parse the journals: the duplicate must not have appended.
	if err := tiercheck.Journaled(tiercheck.Journals(logs), st); err != nil {
		t.Fatal(err)
	}
}
