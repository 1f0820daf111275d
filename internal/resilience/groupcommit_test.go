package resilience_test

// Group commit on the shard journal: concurrent submissions share one
// write, journals stay byte-identical to one-at-a-time appends in
// sequence order, and no submission is acknowledged before its group is
// written — a duplicate of an in-flight record included, and none of a
// group whose write fails.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sharedopt"
	"sharedopt/internal/core"
	"sharedopt/internal/econ"
	. "sharedopt/internal/resilience"
	"sharedopt/internal/tiercheck"
)

// gatedLog is a write-counting journal target whose first write blocks
// until open is closed, so every record enqueued meanwhile waits for the
// next group.
type gatedLog struct {
	w      io.Writer
	open   chan struct{}
	writes atomic.Int32
}

func newGatedLog(w io.Writer) *gatedLog { return &gatedLog{w: w, open: make(chan struct{})} }

func (g *gatedLog) Write(p []byte) (int, error) {
	if g.writes.Add(1) == 1 {
		<-g.open
	}
	return g.w.Write(p)
}

// awaitFirstWrite polls until the first write has begun: the records
// enqueued from now on go to the next group.
func (g *gatedLog) awaitFirstWrite(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for g.writes.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no journal write began")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// awaitSeq polls h until its journal has assigned sequence number seq.
func awaitSeq(t *testing.T, h *ShardHost, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		info, err := h.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if info.Seq >= seq {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal stuck at seq %d, waiting for %d", info.Seq, seq)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// groupHost opens a one-shard additive host over w.
func groupHost(t *testing.T, w io.Writer) *ShardHost {
	t.Helper()
	h, err := NewShardHost(sharedopt.Additive,
		[]sharedopt.Optimization{{ID: 1, Cost: econ.FromDollars(10)}}, 4, 0, 1, w)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestGroupCommitConcurrentSubmits: many goroutines submitting to one
// host make fewer writes than records, every acknowledgment names its
// own record, and the journal is byte-identical to the same records
// appended one at a time in sequence order.
func TestGroupCommitConcurrentSubmits(t *testing.T) {
	const workers, perWorker = 8, 16
	var m MemLog
	g := newGatedLog(&m)
	h := groupHost(t, g)

	acks := make([][]SubmitResult, workers)
	errs := make(chan error, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		acks[w] = make([]SubmitResult, perWorker)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				res, err := submitBid(h, bidFor(core.UserID(1+w*perWorker+k)))
				if err != nil {
					errs <- err
				}
				acks[w][k] = res
			}
		}()
	}
	// Every worker's first bid is enqueued while the first write blocks.
	awaitSeq(t, h, 1+workers)
	close(g.open)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	records := 1 + workers*perWorker
	if got := int(g.writes.Load()); got >= records {
		t.Fatalf("%d writes for %d records: no group formed", got, records)
	}
	recs, _, torn := ReadJournal(m.Bytes())
	if torn || len(recs) != records {
		t.Fatalf("journal holds %d records (torn=%v), want %d", len(recs), torn, records)
	}
	for w := range acks {
		for k, res := range acks[w] {
			u := core.UserID(1 + w*perWorker + k)
			if !res.Fresh || res.Seq < 2 || res.Seq > uint64(records) || recs[res.Seq-1].User != u {
				t.Fatalf("user %d acknowledged as %+v, which is not its record", u, res)
			}
		}
	}
	var ref MemLog
	j := NewJournal(&ref)
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(m.Bytes(), ref.Bytes()) {
		t.Fatal("group-committed journal differs from one-at-a-time appends in sequence order")
	}
}

// TestGroupCommitDuplicateWaitsForGroup: a duplicate arriving while its
// original's group is being written is acknowledged with the original
// Seq, and only once that group is durable.
func TestGroupCommitDuplicateWaitsForGroup(t *testing.T) {
	var m MemLog
	g := newGatedLog(&m)
	h := groupHost(t, g)

	type ack struct {
		res SubmitResult
		err error
	}
	first, dup := make(chan ack, 1), make(chan ack, 1)
	go func() {
		res, err := submitBid(h, bidFor(5))
		first <- ack{res, err}
	}()
	g.awaitFirstWrite(t)
	go func() {
		res, err := submitBid(h, bidFor(5))
		dup <- ack{res, err}
	}()
	// Neither may return while the gate holds the group's write; a
	// wrong early acknowledgment shows within the bound.
	select {
	case a := <-dup:
		t.Fatalf("duplicate acknowledged (%+v, %v) before its original's group was written", a.res, a.err)
	case a := <-first:
		t.Fatalf("original acknowledged (%+v, %v) before its group was written", a.res, a.err)
	case <-time.After(20 * time.Millisecond):
	}
	if m.Len() != 0 {
		t.Fatal("group reached the log before the gate opened")
	}
	close(g.open)
	a, d := <-first, <-dup
	if a.err != nil || !a.res.Fresh || a.res.Seq != 2 {
		t.Fatalf("original: %+v, %v; want fresh Seq 2", a.res, a.err)
	}
	if d.err != nil || d.res.Fresh || d.res.Seq != a.res.Seq {
		t.Fatalf("duplicate: %+v, %v; want the original Seq %d, not fresh", d.res, d.err, a.res.Seq)
	}
	if recs, _, _ := ReadJournal(m.Bytes()); len(recs) != 2 {
		t.Fatalf("journal holds %d records, want the config record and one bid", len(recs))
	}
}

// TestGroupCommitFailedGroupAcksNone: when a multi-record group's write
// fails — cleanly, or after its bytes reached the log as with a failed
// fsync — none of its submissions is acknowledged, the router wedges the
// shard, and a duplicate of a member is refused too.
func TestGroupCommitFailedGroupAcksNone(t *testing.T) {
	for _, kind := range []FaultKind{FaultErr, FaultSync} {
		t.Run(kind.String(), func(t *testing.T) {
			const members = 6
			var m MemLog
			// Write 0 is the config record and the first bid, write 1 the
			// group of the rest.
			g := newGatedLog(NewFaultWriter(&m, FaultPlan{Kind: kind, Record: 1}))
			h := groupHost(t, g)
			catalog := []sharedopt.Optimization{{ID: 1, Cost: econ.FromDollars(10)}}
			ss, err := NewShardedServiceOver(sharedopt.Additive, catalog, 4, []ShardTransport{h}, ShardedConfig{})
			if err != nil {
				t.Fatal(err)
			}

			firstErr := make(chan error, 1)
			go func() { firstErr <- ss.SubmitAdditiveBid(1, bidFor(1)) }()
			g.awaitFirstWrite(t)
			errs := make([]error, members)
			var wg sync.WaitGroup
			for k := range errs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[k] = ss.SubmitAdditiveBid(1, bidFor(core.UserID(10+k)))
				}()
			}
			awaitSeq(t, h, 2+members)
			close(g.open)
			wg.Wait()
			if err := <-firstErr; err != nil {
				t.Fatalf("first bid: %v", err)
			}
			for k, err := range errs {
				if !errors.Is(err, ErrShardWedged) || !errors.Is(err, ErrJournalBroken) {
					t.Fatalf("group member %d: %v, want ErrShardWedged over ErrJournalBroken", k, err)
				}
			}
			if _, err := submitBid(h, bidFor(10)); !errors.Is(err, ErrJournalBroken) {
				t.Fatalf("duplicate of a failed member: %v, want ErrJournalBroken", err)
			}
			if st := ss.ShardStats()[0]; st.Accepted != 1 || st.ReadOnly != members {
				t.Fatalf("counters %+v, want Accepted=1 ReadOnly=%d", st, members)
			}
			if err := ss.Wedged(0); !errors.Is(err, ErrShardWedged) {
				t.Fatalf("Wedged(0) = %v", err)
			}

			// A failed sync leaves the group's bytes in the log: recovery
			// finds the unacknowledged members, and resubmitting them
			// deduplicates. A failed write leaves none.
			recs, _, _ := ReadJournal(m.Bytes())
			want := 2
			if kind == FaultSync {
				want += members
			}
			if len(recs) != want {
				t.Fatalf("journal holds %d records, want %d", len(recs), want)
			}
			back, err := RecoverShardHost(recs, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < members; k++ {
				res, err := submitBid(back, bidFor(core.UserID(10+k)))
				if err != nil || res.Fresh != (kind == FaultErr) {
					t.Fatalf("resubmitting member %d after recovery: %+v, %v", k, res, err)
				}
			}
		})
	}
}

// tornGroupLog blocks its first write until open is closed, then tears
// its second write after keep complete records (and half of the next
// when half is set) and fails it and every later write, like a process
// kill in the middle of a group.
type tornGroupLog struct {
	gatedLog
	keep int
	half bool
}

func (l *tornGroupLog) Write(p []byte) (int, error) {
	switch l.writes.Load() {
	case 0:
		return l.gatedLog.Write(p)
	case 1:
		l.writes.Add(1)
		bounds := append([]int{0}, RecordBoundaries(p)...)
		n := bounds[l.keep]
		if l.half {
			n = (bounds[l.keep] + bounds[l.keep+1]) / 2
		}
		l.w.Write(p[:n])
		return n, ErrCrashed
	}
	return 0, ErrCrashed
}

// TestGroupCommitCrashAtEveryGroupBoundary kills a shard inside a
// multi-record group at each record boundary and mid-record: none of the
// group was acknowledged, recovery keeps exactly its complete records,
// and resubmitting the group deduplicates those and journals the rest.
func TestGroupCommitCrashAtEveryGroupBoundary(t *testing.T) {
	const members = 5
	for keep := 0; keep <= members; keep++ {
		for _, half := range []bool{false, true} {
			if half && keep == members {
				continue
			}
			t.Run(fmt.Sprintf("keep=%d/half=%v", keep, half), func(t *testing.T) {
				var m MemLog
				l := &tornGroupLog{gatedLog: gatedLog{w: &m, open: make(chan struct{})}, keep: keep, half: half}
				h := groupHost(t, l)
				firstErr := make(chan error, 1)
				go func() { _, err := submitBid(h, bidFor(1)); firstErr <- err }()
				l.awaitFirstWrite(t)
				errs := make([]error, members)
				var wg sync.WaitGroup
				for k := range errs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						_, errs[k] = submitBid(h, bidFor(core.UserID(10+k)))
					}()
				}
				awaitSeq(t, h, 2+members)
				close(l.open)
				wg.Wait()
				if err := <-firstErr; err != nil {
					t.Fatalf("first bid: %v", err)
				}
				for k, err := range errs {
					if !errors.Is(err, ErrCrashed) || !errors.Is(err, ErrJournalBroken) {
						t.Fatalf("group member %d: %v, want ErrCrashed over ErrJournalBroken", k, err)
					}
				}

				recs, consumed, torn := ReadJournal(m.Bytes())
				if len(recs) != 2+keep || torn != half {
					t.Fatalf("journal holds %d records (torn=%v), want %d (torn=%v)", len(recs), torn, 2+keep, half)
				}
				var fresh MemLog
				fresh.Write(m.Bytes()[:consumed])
				back, err := RecoverShardHost(recs, &fresh)
				if err != nil {
					t.Fatal(err)
				}
				dups := 0
				for k := 0; k < members; k++ {
					res, err := submitBid(back, bidFor(core.UserID(10+k)))
					if err != nil {
						t.Fatalf("resubmitting member %d: %v", k, err)
					}
					if !res.Fresh {
						dups++
					}
				}
				if dups != keep {
					t.Fatalf("%d resubmissions deduplicated, want the %d that survived", dups, keep)
				}
				if got, _, _ := ReadJournal(fresh.Bytes()); len(got) != 2+members {
					t.Fatalf("recovered journal holds %d records, want %d", len(got), 2+members)
				}
			})
		}
	}
}

// TestGroupCommitConfigWriteFailure: opening a shard writes nothing, so
// a failure of the group that carries the config record surfaces as
// ErrJournalBroken on the first submit or marker, leaves an empty
// journal, and RecoverShardedService re-seeds that journal.
func TestGroupCommitConfigWriteFailure(t *testing.T) {
	ctx := context.Background()
	first := map[string]func(h *ShardHost) error{
		"submit": func(h *ShardHost) error { _, err := submitBid(h, bidFor(1)); return err },
		"marker": func(h *ShardHost) error { return h.Advance(ctx, 1) },
		"close":  func(h *ShardHost) error { return h.ClosePeriod(ctx) },
	}
	for name, op := range first {
		t.Run(name, func(t *testing.T) {
			var m MemLog
			h := groupHost(t, NewFaultWriter(&m, FaultPlan{Kind: FaultErr}))
			if err := op(h); !errors.Is(err, ErrJournalBroken) || !errors.Is(err, ErrInjected) {
				t.Fatalf("first %s: %v, want ErrInjected wrapped in ErrJournalBroken", name, err)
			}
			if m.Len() != 0 {
				t.Fatalf("failed first group left %d bytes", m.Len())
			}
		})
	}

	const n = 2
	catalog := []sharedopt.Optimization{{ID: 1, Cost: econ.FromDollars(2)}}
	logs, ws := tiercheck.MemWriters(n)
	ws[0] = NewFaultWriter(logs[0], FaultPlan{Kind: FaultErr})
	ss, err := NewShardedService(sharedopt.Additive, catalog, 4, ws, ShardedConfig{})
	if err != nil {
		t.Fatalf("opening a tier wrote to a journal: %v", err)
	}
	u0, u1 := userOnShard(0, n, 0), userOnShard(1, n, 0)
	if err := ss.SubmitAdditiveBid(1, shardBid(u1)); err != nil {
		t.Fatal(err)
	}
	if err := ss.SubmitAdditiveBid(1, shardBid(u0)); !errors.Is(err, ErrJournalBroken) {
		t.Fatalf("submit over a failed config group: %v, want ErrJournalBroken", err)
	}
	if _, err := ss.AdvanceSlot(); err != nil {
		t.Fatal(err)
	}

	journals := tiercheck.Journals(logs)
	if len(journals[0]) != 0 {
		t.Fatalf("shard 0 journal holds %d records, want none", len(journals[0]))
	}
	rlogs, rws := tiercheck.MemWriters(n)
	rec, err := RecoverShardedService(journals, rws, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := tiercheck.Journals(rlogs)[0]; len(got) == 0 || got[0].Kind != KindShardConfig {
		t.Fatalf("re-seeded shard 0 journal: %+v, want it to open with a config record", got)
	}
	if len(rec.WedgedShards()) != 0 {
		t.Fatalf("recovered tier wedged %v", rec.WedgedShards())
	}
	bid := core.OnlineBid{User: u0, Start: 2, End: 2, Values: []econ.Money{econ.FromDollars(5)}}
	if err := rec.SubmitAdditiveBid(1, bid); err != nil {
		t.Fatalf("re-seeded shard refused a bid: %v", err)
	}
}
