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

// lossyLink fronts a shard and loses the replies of the next lose
// submissions after the shard has decided them, as a dropped connection
// does: the caller sees ErrShardUnavailable though the bid is durable.
type lossyLink struct {
	ShardTransport
	lose int
}

func (l *lossyLink) Submit(ctx context.Context, rec Record) (SubmitResult, error) {
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
