package resilience_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"sharedopt"
	"sharedopt/internal/core"
	"sharedopt/internal/econ"
	. "sharedopt/internal/resilience"
	"sharedopt/internal/tiercheck"
)

// TestDuplicateOfDepartedUserDeduped: once a user's end slot has passed
// her shard keeps only her digest, not her curve, yet a duplicate
// delivery of her bid is still acknowledged as the original — Fresh
// false, original Seq, nothing journaled — live and on a host recovered
// from the journal. A different bid from her is refused as a bid after
// departure.
func TestDuplicateOfDepartedUserDeduped(t *testing.T) {
	ctx := context.Background()
	catalog := []sharedopt.Optimization{{ID: 1, Cost: econ.FromDollars(10)}}
	var m MemLog
	h, err := NewShardHost(sharedopt.Additive, catalog, 4, 0, 1, &m)
	if err != nil {
		t.Fatal(err)
	}
	bid := core.OnlineBid{User: 4, Start: 1, End: 1, Values: []econ.Money{econ.FromDollars(3)}}
	first, err := submitBid(h, bid)
	if err != nil || !first.Fresh {
		t.Fatalf("first delivery: %+v, %v", first, err)
	}
	if err := h.Advance(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := h.Advance(ctx, 2); err != nil {
		t.Fatal(err)
	}
	later := core.OnlineBid{User: 4, Start: 3, End: 3, Values: []econ.Money{econ.FromDollars(3)}}
	check := func(h *ShardHost, when string) {
		t.Helper()
		before := m.Len()
		dup, err := submitBid(h, bid)
		if err != nil || dup.Fresh || dup.Seq != first.Seq {
			t.Fatalf("%s: duplicate of departed user's bid acknowledged as %+v, %v; want the original %+v", when, dup, err, first)
		}
		if _, err := submitBid(h, later); err == nil {
			t.Fatalf("%s: bid after departure admitted", when)
		}
		if m.Len() != before {
			t.Fatalf("%s: journal grew from %d to %d bytes", when, before, m.Len())
		}
	}
	check(h, "live")
	recs, _, _ := ReadJournal(m.Bytes())
	back, err := RecoverShardHost(recs, &m)
	if err != nil {
		t.Fatal(err)
	}
	check(back, "recovered")
}

// TestShardHostReleasesValidatorAtPeriodEnd: once the period is over —
// at the horizon's adv marker, at a close marker, or when replay reaches
// either — a shard host's validator holds no curves and no departure
// marks, yet every verdict stands: a new bid is refused with
// ErrPeriodOver, and a duplicate of a pre-close bid is acknowledged with
// its original sequence and journals nothing.
func TestShardHostReleasesValidatorAtPeriodEnd(t *testing.T) {
	ctx := context.Background()
	catalog := []sharedopt.Optimization{{ID: 1, Cost: econ.FromDollars(10)}}
	bid := core.OnlineBid{User: 4, Start: 1, End: 2, Values: []econ.Money{econ.FromDollars(3), econ.FromDollars(3)}}
	late := core.OnlineBid{User: 5, Start: 2, End: 2, Values: []econ.Money{econ.FromDollars(3)}}
	for _, tc := range []struct {
		name string
		end  func(h *ShardHost) error // ends the period
	}{
		{"horizon", func(h *ShardHost) error { return h.Advance(ctx, 2) }},
		{"close", func(h *ShardHost) error { return h.ClosePeriod(ctx) }},
	} {
		var m MemLog
		h, err := NewShardHost(sharedopt.Additive, catalog, 2, 0, 1, &m)
		if err != nil {
			t.Fatal(err)
		}
		first, err := submitBid(h, bid)
		if err != nil || !first.Fresh {
			t.Fatalf("%s: first delivery: %+v, %v", tc.name, first, err)
		}
		if err := h.Advance(ctx, 1); err != nil {
			t.Fatal(err)
		}
		if ValidatorHeld(h) == 0 {
			t.Fatalf("%s: validator holds nothing before the period ends", tc.name)
		}
		if err := tc.end(h); err != nil {
			t.Fatal(err)
		}
		check := func(h *ShardHost, when string) {
			t.Helper()
			if n := ValidatorHeld(h); n != 0 {
				t.Fatalf("%s, %s: validator holds %d entries after the period ended", tc.name, when, n)
			}
			before := m.Len()
			if _, err := submitBid(h, late); !errors.Is(err, sharedopt.ErrPeriodOver) {
				t.Fatalf("%s, %s: new bid after the period returned %v, want ErrPeriodOver", tc.name, when, err)
			}
			dup, err := submitBid(h, bid)
			if err != nil || dup.Fresh || dup.Seq != first.Seq {
				t.Fatalf("%s, %s: duplicate of a pre-close bid acknowledged as %+v, %v; want the original %+v", tc.name, when, dup, err, first)
			}
			if m.Len() != before {
				t.Fatalf("%s, %s: journal grew from %d to %d bytes", tc.name, when, before, m.Len())
			}
		}
		check(h, "live")
		recs, _, _ := ReadJournal(m.Bytes())
		back, err := RecoverShardHost(recs, &m)
		if err != nil {
			t.Fatal(err)
		}
		check(back, "recovered")
	}
}

// TestShardHostDedupManyChunks: a shard's dedup digests stay exact
// across the append map's chunk boundaries and index growths and through
// the period's end. A shard takes 620 bids (three 256-entry chunks, six
// index growths) and is closed by the horizon's adv marker; then, live
// and on a host recovered from its journal, a duplicate of every bid is
// acknowledged with its original Seq and journals nothing, and a new bid
// is refused with ErrPeriodOver.
func TestShardHostDedupManyChunks(t *testing.T) {
	const bids, horizon = 620, 3
	ctx := context.Background()
	catalog := []sharedopt.Optimization{{ID: 1, Cost: econ.FromDollars(10)}, {ID: 2, Cost: econ.FromDollars(7)}}
	for _, kind := range []sharedopt.GameKind{sharedopt.Additive, sharedopt.Substitutive} {
		bid := func(u core.UserID) Record {
			start := core.Slot(1 + int(u)%horizon)
			values := make([]econ.Money, horizon-start+1)
			for k := range values {
				values[k] = econ.FromCents(int64(1 + (int(u)*7+k)%90))
			}
			if kind == sharedopt.Additive {
				return Record{Kind: KindAdditiveBid, User: u, Opt: core.OptID(1 + int(u)%2), Start: start, End: horizon, Values: values}
			}
			return Record{Kind: KindSubstBid, User: u, Set: []core.OptID{1, 2}[int(u)%2:], Start: start, End: horizon, Values: values}
		}
		var m MemLog
		h, err := NewShardHost(kind, catalog, horizon, 0, 1, &m)
		if err != nil {
			t.Fatal(err)
		}
		seqs := make([]uint64, bids)
		for i := range seqs {
			res, err := h.Submit(ctx, bid(core.UserID(i+1)))
			if err != nil || !res.Fresh {
				t.Fatalf("%v: bid %d: %+v, %v", kind, i+1, res, err)
			}
			seqs[i] = res.Seq
		}
		for w := 1; w <= horizon; w++ {
			if err := h.Advance(ctx, w); err != nil {
				t.Fatal(err)
			}
		}
		check := func(h *ShardHost, when string) {
			t.Helper()
			before := m.Len()
			for i, seq := range seqs {
				dup, err := h.Submit(ctx, bid(core.UserID(i+1)))
				if err != nil || dup.Fresh || dup.Seq != seq {
					t.Fatalf("%v, %s: duplicate of bid %d acknowledged as %+v, %v; want Seq %d", kind, when, i+1, dup, err, seq)
				}
			}
			if _, err := h.Submit(ctx, bid(bids+1)); !errors.Is(err, sharedopt.ErrPeriodOver) {
				t.Fatalf("%v, %s: new bid after the period returned %v, want ErrPeriodOver", kind, when, err)
			}
			if m.Len() != before {
				t.Fatalf("%v, %s: journal grew from %d to %d bytes", kind, when, before, m.Len())
			}
		}
		check(h, "live")
		recs, _, _ := ReadJournal(m.Bytes())
		back, err := RecoverShardHost(recs, &m)
		if err != nil {
			t.Fatal(err)
		}
		check(back, "recovered")
	}
}

// lossyLink fronts a shard and loses the replies of the next lose
// submissions after the shard has decided them, as a dropped connection
// does: the caller sees ErrShardUnavailable though the bid is durable.
// It counts the submissions it forwards.
type lossyLink struct {
	ShardTransport
	lose    int
	submits int
}

func (l *lossyLink) Submit(ctx context.Context, rec Record) (SubmitResult, error) {
	l.submits++
	res, err := l.ShardTransport.Submit(ctx, rec)
	if l.lose > 0 {
		l.lose--
		return SubmitResult{}, fmt.Errorf("%w: reply lost (shard said %+v, %v)", ErrShardUnavailable, res, err)
	}
	return res, err
}

// TestInDoubtBatchedByRetryFoldsOnce: a bid whose reply is lost is left
// in doubt; a client retry is acknowledged with its original sequence
// and batched; settlement's idempotent resubmission of the in-doubt
// entry then finds that sequence batched, so the bid folds exactly once.
// The same holds on a tier rebuilt by RecoverShardedService, for a new
// bid and for a pre-crash bid whose resend is left in doubt: recovery
// primes the batched sequences from the journals.
func TestInDoubtBatchedByRetryFoldsOnce(t *testing.T) {
	const n = 2
	catalog := []sharedopt.Optimization{{ID: 1, Cost: econ.FromDollars(4)}}
	logs, ws := tiercheck.MemWriters(n)
	links := make([]ShardTransport, n)
	lossy := make([]*lossyLink, n)
	for i := range links {
		h, err := NewShardHost(sharedopt.Additive, catalog, 4, i, n, ws[i])
		if err != nil {
			t.Fatal(err)
		}
		lossy[i] = &lossyLink{ShardTransport: h}
		links[i] = lossy[i]
	}
	ss, err := NewShardedServiceOver(sharedopt.Additive, catalog, 4, links, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sharedopt.NewAdditiveService(catalog, 4)
	if err != nil {
		t.Fatal(err)
	}
	u := userOnShard(1, n, 0)
	bid := func(u core.UserID, slot core.Slot) core.OnlineBid {
		return core.OnlineBid{User: u, Start: slot, End: slot + 1, Values: []econ.Money{econ.FromDollars(5), econ.FromDollars(1)}}
	}
	// inDoubtThenRetry submits b through a lost reply, then retries it.
	inDoubtThenRetry := func(ss *ShardedService, l *lossyLink, b core.OnlineBid) {
		t.Helper()
		l.lose = 1
		if err := ss.SubmitAdditiveBid(1, b); !errors.Is(err, ErrShardUnavailable) {
			t.Fatalf("lost reply returned %v, want ErrShardUnavailable", err)
		}
		if err := ss.SubmitAdditiveBid(1, b); err != nil {
			t.Fatalf("retry: %v", err)
		}
	}
	advanceBoth := func(ss *ShardedService) {
		t.Helper()
		if _, err := ss.AdvanceSlot(); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.AdvanceSlot(); err != nil {
			t.Fatal(err)
		}
		if got, want := tiercheck.Snapshot(ss), tiercheck.Snapshot(ref); got != want {
			t.Fatalf("tier diverged from the reference\n--- tier ---\n%s--- reference ---\n%s", got, want)
		}
	}
	counters := func(ss *ShardedService, accepted uint64) {
		t.Helper()
		st := ss.ShardStats()[1]
		if st.Accepted != accepted || st.Settled != accepted || st.Pending != 0 || st.Unavailable == 0 {
			t.Fatalf("shard 1 counters %+v, want Accepted = Settled = %d, Pending 0, Unavailable > 0", st, accepted)
		}
	}

	inDoubtThenRetry(ss, lossy[1], bid(u, 1))
	if err := ref.SubmitAdditiveBid(1, bid(u, 1)); err != nil {
		t.Fatal(err)
	}
	advanceBoth(ss)
	counters(ss, 1)

	rec, err := RecoverShardedService(tiercheck.Journals(logs), ws, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	l := &lossyLink{}
	l.ShardTransport = SwapLink(rec, 1, l)
	// A pre-crash bid resent with its reply lost: in doubt, resolved
	// at settlement to the sequence recovery primed.
	l.lose = 1
	if err := rec.SubmitAdditiveBid(1, bid(u, 1)); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("lost reply returned %v, want ErrShardUnavailable", err)
	}
	v := userOnShard(1, n, u)
	inDoubtThenRetry(rec, l, bid(v, 2))
	if err := ref.SubmitAdditiveBid(1, bid(v, 2)); err != nil {
		t.Fatal(err)
	}
	advanceBoth(rec)
	counters(rec, 2)
	if err := tiercheck.Journaled(tiercheck.Journals(logs), rec.ShardStats()); err != nil {
		t.Fatal(err)
	}
}

// TestUnencodableBidNotInDoubt: a bid whose values do not fill its
// interval has no journal line, so the shard cannot have journaled it.
// When its reply is lost it is not left in doubt: settlement does not
// resubmit it, and the tier settles as if it had never been sent.
func TestUnencodableBidNotInDoubt(t *testing.T) {
	catalog := []sharedopt.Optimization{{ID: 1, Cost: econ.FromDollars(4)}}
	var m MemLog
	h, err := NewShardHost(sharedopt.Additive, catalog, 4, 0, 1, &m)
	if err != nil {
		t.Fatal(err)
	}
	lossy := &lossyLink{ShardTransport: h, lose: 1}
	ss, err := NewShardedServiceOver(sharedopt.Additive, catalog, 4, []ShardTransport{lossy}, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	bad := core.OnlineBid{User: 1, Start: 1, End: 3, Values: []econ.Money{econ.FromDollars(5)}}
	if err := ss.SubmitAdditiveBid(1, bad); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("lost reply returned %v, want ErrShardUnavailable", err)
	}
	if _, err := ss.AdvanceSlot(); err != nil {
		t.Fatal(err)
	}
	if lossy.submits != 1 {
		t.Fatalf("shard saw %d submissions, want 1: the unencodable bid was resubmitted", lossy.submits)
	}
	if st := ss.ShardStats()[0]; st.Accepted != 0 || st.Unavailable != 1 || st.Pending != 0 {
		t.Fatalf("counters %+v, want nothing accepted or pending and one unavailable", st)
	}
}
