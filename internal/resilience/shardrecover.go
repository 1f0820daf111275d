package resilience

// Recovery for the sharded tier. The N shard journals are independent
// logs that crash and tear independently; recovery reconciles them into
// one consistent tier:
//
//  1. Every non-empty journal must open with a KindShardConfig record
//     whose Shard matches its position and whose game/horizon/catalog
//     and shard count agree with the others. An empty journal is a
//     creation crash — its config write never completed, so nothing on
//     it was ever acknowledged and it is re-seeded in place.
//  2. Each shard's record prefix is replayed into a fresh ShardHost
//     (RecoverShardHost: validator, dedup, journal), and its accepted
//     bids are grouped into settlement windows: the bids between
//     consecutive adv markers. The shard's frontier is its adv count.
//  3. The reconciled slot S is the maximum frontier: an advance with at
//     least one durable adv marker was acknowledged (the marker is
//     written before the advance returns), so like an in-doubt
//     distributed commit with a durable decision record it rolls
//     forward, never back. A shard behind S lost its marker to the
//     crash (or was wedged); its journal tail — the bids after its last
//     marker — belongs to exactly the window it stopped in, window
//     frontier+1.
//  4. Windows 1..S fold into a fresh settlement game in shard-index
//     order, the same canonical order live settlement uses, then the
//     tails of shards already at S become their live batches again (or
//     fold and close, if any shard journaled a close).
//  5. Lagging journals are rolled forward — the hosts append the
//     missing adv/close markers — so all N journals agree afterwards.
//
// A bid the settlement game rejects wedges its shard with
// ErrPolicyDiverged (the same degradation rule as live settlement; only
// journals this code cannot have written trip it); a journal that
// contradicts the protocol (a closed shard behind the frontier, records
// after a close, a config mismatch) fails recovery as corrupt.

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"sharedopt/internal/core"
)

// sameShardConfig checks that two shard-config records describe the same
// tier (ignoring which shard each belongs to).
func sameShardConfig(a, b Record) error {
	na, nb := a, b
	na.Seq, na.Shard = 0, 0
	nb.Seq, nb.Shard = 0, 0
	if !bytes.Equal(na.canonical(), nb.canonical()) {
		return fmt.Errorf("resilience: shard %d and shard %d journals disagree on tier config", a.Shard, b.Shard)
	}
	return nil
}

// shardReplay is one journal's parsed history: its accepted bids grouped
// into settlement windows by the adv markers, the tail after the last
// marker, and whether a close marker ended it.
type shardReplay struct {
	windows [][]pendingBid
	tail    []pendingBid
	closed  bool
}

// pendingFromRecord converts a journaled bid back into batch form,
// carrying the durable sequence so recovered batches fold in journal
// order exactly like live ones.
func pendingFromRecord(rec Record) pendingBid {
	if rec.Kind == KindAdditiveBid {
		return pendingBid{seq: rec.Seq, additive: true, opt: rec.Opt, abid: core.OnlineBid{
			User: rec.User, Start: rec.Start, End: rec.End, Values: rec.Values,
		}}
	}
	return pendingBid{seq: rec.Seq, sbid: core.OnlineSubstBid{
		User: rec.User, Opts: rec.Set, Start: rec.Start, End: rec.End, Values: rec.Values,
	}}
}

// RecoverShardedService rebuilds a sharded tier from its N journal
// prefixes (journals[i] is shard i's ReadJournal/OpenFileLog result; any
// subset may be torn, truncated, or empty) and resumes appending shard i
// to writers[i]. Recovery is deterministic: the same journals always
// yield byte-identical invoices, surplus, and implemented sets, equal to
// the pre-crash tier's acknowledged state rolled forward to the
// reconciled slot frontier.
func RecoverShardedService(journals [][]Record, writers []io.Writer, cfg ShardedConfig) (*ShardedService, error) {
	n := len(journals)
	if n == 0 {
		return nil, ErrEmptyJournal
	}
	if len(writers) != n {
		return nil, fmt.Errorf("resilience: %d journals but %d writers", n, len(writers))
	}

	// Cross-check the shard config records.
	var tierCfg *Record
	for i := range journals {
		if len(journals[i]) == 0 {
			continue // creation crash: re-seeded below
		}
		c := journals[i][0]
		if c.Kind != KindShardConfig {
			return nil, fmt.Errorf("resilience: shard %d journal opens with %s record, want %s", i, c.Kind, KindShardConfig)
		}
		if c.Shard != i {
			return nil, fmt.Errorf("resilience: journal %d carries shard index %d: journals passed out of order", i, c.Shard)
		}
		if c.Shards != n {
			return nil, fmt.Errorf("resilience: shard %d journal names %d shards, recovering %d", i, c.Shards, n)
		}
		if tierCfg == nil {
			cc := c
			tierCfg = &cc
		} else if err := sameShardConfig(*tierCfg, c); err != nil {
			return nil, err
		}
	}
	if tierCfg == nil {
		return nil, ErrEmptyJournal
	}
	kind, err := gameKind(tierCfg.Game)
	if err != nil {
		return nil, err
	}
	catalog := catalogOf(tierCfg.Opts)
	settle, err := newService(kind, catalog, tierCfg.Horizon)
	if err != nil {
		return nil, fmt.Errorf("resilience: corrupt journal: config rejected: %w", err)
	}
	s := &ShardedService{
		kind:     kind,
		horizon:  tierCfg.Horizon,
		maxBatch: cfg.MaxBatch,
		timeout:  cfg.CallTimeout,
		shards:   make([]*shard, n),
		settle:   settle,
		tm:       newTierMetrics(cfg.Obs, n),
	}

	// Replay each shard's prefix into a fresh host, and group its bids
	// into settlement windows. The recovered tier fronts its hosts with
	// in-process loopback transports.
	reps := make([]shardReplay, n)
	for i, recs := range journals {
		w := timedJournal(writers[i], cfg.Obs, i)
		if len(recs) == 0 {
			// Creation crash: nothing durable was ever acknowledged on
			// this shard. Re-seed its config record; if even that write
			// fails the shard comes up wedged instead of sinking the tier.
			c := shardConfigRecord(kind, catalog, tierCfg.Horizon, i, n)
			host := newShardHost(c, kind, NewJournal(w))
			s.shards[i] = newShard(host, newShardMetrics(cfg.Obs, i))
			if err := host.j.Append(c); err != nil {
				s.wedgeLocked(i, err)
			}
			continue
		}
		host, err := RecoverShardHost(recs, w)
		if err != nil {
			return nil, err
		}
		sh := newShard(host, newShardMetrics(cfg.Obs, i))
		s.shards[i] = sh
		rep := &reps[i]
		for _, rec := range recs[1:] {
			switch rec.Kind {
			case KindAdditiveBid, KindSubstBid:
				rep.tail = append(rep.tail, pendingFromRecord(rec))
				// Prime the router's dedup set with every journaled bid,
				// so a client retrying a pre-crash submission is
				// recognized as a duplicate instead of double-batched.
				sh.batched.add(rec.Seq)
			case KindAdvanceSlot:
				rep.windows = append(rep.windows, rep.tail)
				rep.tail = nil
			case KindClosePeriod:
				rep.closed = true
			}
		}
		// Every journaled bid was accepted once; the counters start there.
		sh.om.accepted.Add(host.bids)
	}

	// Reconcile the slot frontier: the maximum adv count across shards.
	// An advance acknowledged anywhere rolls forward everywhere.
	S := 0
	anyClosed := false
	for i := range reps {
		if f := len(reps[i].windows); f > S {
			S = f
		}
		anyClosed = anyClosed || reps[i].closed
	}
	for i := range reps {
		if reps[i].closed && len(reps[i].windows) != S {
			return nil, fmt.Errorf("resilience: corrupt journal: shard %d closed at slot %d behind frontier %d", i, len(reps[i].windows), S)
		}
	}

	// Fold windows 1..S into the settlement game, shard-index order
	// within each window — the canonical live order. A shard behind the
	// frontier contributes its tail to the window it stopped in.
	for w := 1; w <= S; w++ {
		for i := range reps {
			if s.shards[i].wedged != nil {
				continue // diverged earlier: degradation skips its later windows
			}
			var batch []pendingBid
			switch {
			case w <= len(reps[i].windows):
				batch = reps[i].windows[w-1]
			case w == len(reps[i].windows)+1 && !reps[i].closed:
				batch = reps[i].tail
				reps[i].tail = nil
			}
			if len(batch) > 0 {
				s.foldBatchLocked(i, batch)
			}
		}
		if _, err := s.settle.AdvanceSlot(); err != nil {
			return nil, fmt.Errorf("resilience: corrupt journals: replaying settlement slot %d: %w", w, err)
		}
	}

	// Bids accepted in the still-open window — the tails of shards whose
	// frontier reached S — either become live batches again, or (if any
	// shard journaled a close) fold pre-close exactly as the live drain
	// did.
	if anyClosed {
		for i := range reps {
			if s.shards[i].wedged != nil || len(reps[i].tail) == 0 {
				continue
			}
			s.foldBatchLocked(i, reps[i].tail)
			reps[i].tail = nil
		}
		if _, err := s.settle.ClosePeriod(); err != nil {
			return nil, fmt.Errorf("resilience: corrupt journals: closing settlement: %w", err)
		}
	} else {
		for i := range reps {
			if s.shards[i].wedged != nil {
				continue // a wedged shard's unsettled bids stay in its journal only
			}
			s.shards[i].batch = reps[i].tail
			reps[i].tail = nil
		}
	}

	// Roll the lagging journals forward, through the hosts, so every
	// shard's durable history agrees with the reconciled frontier (and
	// close). A write failure here wedges just that shard; the tier still
	// comes up.
	ctx := context.Background()
	for i := range reps {
		sh := s.shards[i]
		for w := len(reps[i].windows); w < S && sh.wedged == nil; w++ {
			if err := sh.link.Advance(ctx, w+1); err != nil {
				s.wedgeLocked(i, err)
			}
		}
		if anyClosed && !reps[i].closed && sh.wedged == nil {
			if err := sh.link.ClosePeriod(ctx); err != nil {
				s.wedgeLocked(i, err)
			}
		}
	}
	return s, nil
}
