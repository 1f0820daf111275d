package resilience

// The sharded durable tier. A ShardedService partitions users across N
// shards and talks to each through a ShardTransport (see transport.go):
// in-process ShardHost loopbacks by default, TCP clients when the shards
// live in other processes. Shards are the durability and admission
// authority: a submission routes to its user's shard, is judged by that
// shard's validator (the mechanism's admission rules over its users'
// declared curves), journaled in that shard's log, and buffered in the
// router's between-slots batch. Settlement alone runs the mechanism, and
// it is global: AdvanceSlot freezes every shard's batch behind one
// durable adv marker per shard (shard-index order), then folds the
// frozen batches — shard index order outside, journal order within a
// shard — into a single derived settlement game and advances it. The
// settlement game is never journaled; it is a pure deterministic
// function of the N journals, which is what makes invoices, surplus, and
// implemented sets byte-identical to the equivalent single-shard run at
// any shard count.
//
// Failure is partial by design, and two-axis. A journal append failure
// (or a journal the settlement game cannot fold, ErrPolicyDiverged)
// wedges only the shard it happened on — fail-stop, ErrShardWedged,
// that shard's users read-only while the rest keep settling. A transport
// failure (deadline, dropped connection, breaker open) is transient —
// ErrShardUnavailable: the submit's fate is in doubt and the router
// resolves it by idempotent resubmission at the next settlement; a
// settlement round with an unreachable shard parks durably-marked shards
// and retries until the stragglers answer. Only when every shard is
// wedged does the tier as a whole refuse mutations.

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"sharedopt"
	"sharedopt/internal/core"
	"sharedopt/internal/econ"
	"sharedopt/internal/obs"
)

// ErrShardWedged marks a shard that can no longer accept mutations — its
// journal broke or its accepted history diverged from the settlement
// policy. The tier serves that shard's users read-only; other shards are
// unaffected. Errors wrapping it name the shard index and cause.
var ErrShardWedged = errors.New("resilience: shard wedged, serving its users read-only")

// ErrOverloaded is the typed admission-control rejection: the shard's
// between-slots batch is full and the submission was NOT journaled. It is
// the only way a submission is turned away under load — nothing is ever
// silently dropped — and it is retryable (see Retry), safely so because
// accepted submissions are journaled idempotently.
var ErrOverloaded = errors.New("resilience: ingestion queue overloaded")

// ErrPolicyDiverged marks a shard whose journaled bids the settlement
// game refuses to fold. Shards admit bids with the same rules settlement
// applies, so journals this code writes never trip it: it detects
// journals it cannot have written — one user's bids split across shards
// by a different router, a hand-edited or foreign log — and wedges that
// shard instead of failing the tier.
var ErrPolicyDiverged = errors.New("resilience: journaled bids diverged from the settlement policy")

// ShardFor deterministically routes a user to one of shards shards. The
// function is part of the durable contract: recovery regroups users by
// re-deriving it, so it must never change for journals in the wild (the
// golden test pins its values). It is a 64-bit finalizer-style mixer, so
// consecutive user IDs spread evenly.
func ShardFor(u core.UserID, shards int) int {
	h := uint64(u) + 0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return int(h % uint64(shards))
}

// ShardedConfig tunes a ShardedService.
type ShardedConfig struct {
	// MaxBatch bounds each shard's between-slots ingestion batch. A
	// submission arriving at a full batch (in-flight submissions count)
	// fails fast with ErrOverloaded (retryable; the batch drains at the
	// next AdvanceSlot). 0 means unbounded.
	MaxBatch int
	// CallTimeout bounds each transport call — submit, marker, stats —
	// when the shards sit behind a real network. 0 means no deadline,
	// which is right for the in-process loopback transport.
	CallTimeout time.Duration
	// Obs, if non-nil, exports the tier's metrics (see obs.go): the
	// outcome counters ShardStats reads, which the tier keeps privately
	// when Obs is nil, their tier sums, batch high-water marks, and
	// journal-write and slot-advance latency. Give each tier its own
	// registry. Journal bytes and settlement are byte-identical either way.
	Obs *obs.Registry
}

// ShardCounters are one shard's exact ingestion statistics, as observed
// by the router.
type ShardCounters struct {
	Accepted    uint64 // applied, journaled, and batched for settlement
	Rejected    uint64 // refused by the mechanism (validation, closed, …)
	Overloaded  uint64 // turned away at a full between-slots batch
	ReadOnly    uint64 // turned away because the shard is wedged
	Unavailable uint64 // transport calls that reached no decision (fate in doubt until resolved)
	Settled     uint64 // folded into the settlement game so far
	Pending     uint64 // batched or frozen now, awaiting settlement
}

// pendingBid is one accepted submission waiting in a shard's batch for
// the next settlement fold. seq is the journal sequence the shard
// assigned it; folds sort by it, so settlement order equals journal
// order even when pipelined acknowledgments arrive out of order.
type pendingBid struct {
	seq      uint64
	additive bool
	opt      core.OptID
	abid     core.OnlineBid
	sbid     core.OnlineSubstBid
}

func (p pendingBid) user() core.UserID {
	if p.additive {
		return p.abid.User
	}
	return p.sbid.User
}

// applyTo replays the pending bid into the settlement game.
func (p pendingBid) applyTo(svc *sharedopt.Service) error {
	if p.additive {
		return svc.SubmitAdditiveBid(p.opt, p.abid)
	}
	return svc.SubmitSubstitutiveBid(p.sbid)
}

// indoubtBid is a submission whose transport call ended unavailable: it
// may or may not be durable on its shard. The router resolves it by
// idempotent resubmission before the next settlement marker, so the
// folded set always equals the journaled set.
type indoubtBid struct {
	p   pendingBid
	rec Record
	fp  [sha256.Size]byte // digest of rec's canonical payload
}

// seqSet is a set of journal sequences stored as a bitmap: the key is a
// sequence's 64-aligned word, seq>>6, and the value holds one bit per
// sequence in it. A shard assigns its sequences densely, so a member
// costs about one bit; a sparse member costs one word.
type seqSet map[uint64]uint64

func (s seqSet) add(seq uint64) { s[seq>>6] |= 1 << (seq & 63) }

func (s seqSet) has(seq uint64) bool { return s[seq>>6]&(1<<(seq&63)) != 0 }

// shard is the router's view of one partition: the transport link plus
// the batch of accepted bids not yet folded into settlement.
type shard struct {
	mu   sync.Mutex
	idle *sync.Cond // signaled when inflight hits 0 or settling clears
	link ShardTransport
	// batch holds accepted bids of the open window; frozen holds the
	// bids drained for the in-progress settlement round (non-empty only
	// while a round is pending on an unreachable shard or mid-fold).
	batch  []pendingBid
	frozen []pendingBid
	// batched marks the journal sequences this router has folded or
	// will fold. A duplicate acknowledgment (retry after a lost reply)
	// carries its original record's sequence, so this set tells it from
	// a fresh accept that must be batched once.
	batched seqSet
	indoubt []indoubtBid
	// marked is true while the in-progress settlement round's marker is
	// durable on this shard (cleared when the round completes).
	marked bool
	// settling gates submissions while this shard's batch freezes, and
	// inflight counts submissions currently on the wire: the freeze
	// waits for them, so every bid journaled ahead of the marker is in
	// the frozen batch.
	settling bool
	inflight int
	wedged   error        // non-nil once read-only; wraps ErrShardWedged
	om       shardMetrics // the outcome counters; move only under mu
}

func newShard(link ShardTransport, om shardMetrics) *shard {
	sh := &shard{link: link, batched: make(seqSet), om: om}
	sh.idle = sync.NewCond(&sh.mu)
	return sh
}

// dropIndoubtLocked forgets in-doubt entries for fp after a later
// delivery of the same bid was definitively rejected.
func (sh *shard) dropIndoubtLocked(fp [sha256.Size]byte) {
	kept := sh.indoubt[:0]
	for _, in := range sh.indoubt {
		if in.fp != fp {
			kept = append(kept, in)
		}
	}
	sh.indoubt = kept
}

// Settlement-round phases: a partially-acknowledged round (some shards
// unreachable) parks durably and must be driven to completion before a
// different round kind can start.
const (
	phaseIdle = iota
	phaseAdvance
	phaseClose
)

// ShardedService is the N-shard durable pricing tier; at N = 1 it is the
// single-journal tier.
type ShardedService struct {
	mu       sync.Mutex // serializes settlement (AdvanceSlot/ClosePeriod)
	kind     sharedopt.GameKind
	horizon  core.Slot
	maxBatch int
	timeout  time.Duration
	phase    int
	shards   []*shard
	settle   *sharedopt.Service // derived global game; never journaled
	tm       tierMetrics        // zero value when not exported
}

// gameName maps a kind to its journaled name.
func gameName(kind sharedopt.GameKind) string { return kind.String() }

// gameKind parses a journaled game name.
func gameKind(name string) (sharedopt.GameKind, error) {
	switch name {
	case sharedopt.Additive.String():
		return sharedopt.Additive, nil
	case sharedopt.Substitutive.String():
		return sharedopt.Substitutive, nil
	default:
		return 0, fmt.Errorf("resilience: unknown game kind %q", name)
	}
}

// optCosts converts a catalog to its journaled form.
func optCosts(opts []sharedopt.Optimization) []OptCost {
	out := make([]OptCost, len(opts))
	for i, o := range opts {
		out[i] = OptCost{ID: o.ID, Cost: o.Cost}
	}
	return out
}

// catalogOf converts journaled costs back to a catalog.
func catalogOf(opts []OptCost) []sharedopt.Optimization {
	out := make([]sharedopt.Optimization, len(opts))
	for i, o := range opts {
		out[i] = sharedopt.Optimization{ID: o.ID, Cost: o.Cost}
	}
	return out
}

// newService constructs the settlement game for a kind.
func newService(kind sharedopt.GameKind, opts []sharedopt.Optimization, horizon sharedopt.Slot) (*sharedopt.Service, error) {
	if kind == sharedopt.Additive {
		return sharedopt.NewAdditiveService(opts, horizon)
	}
	return sharedopt.NewSubstitutiveService(opts, horizon)
}

// shardConfigRecord builds shard i's opening journal record.
func shardConfigRecord(kind sharedopt.GameKind, opts []sharedopt.Optimization, horizon core.Slot, i, n int) Record {
	return Record{
		Kind:    KindShardConfig,
		Game:    gameName(kind),
		Horizon: horizon,
		Opts:    optCosts(opts),
		Shard:   i,
		Shards:  n,
	}
}

// NewShardedService opens a fresh sharded period over len(writers)
// shards, one journal target per shard, fronted by in-process loopback
// transports. Each shard's journal opens with a KindShardConfig record
// naming its index and the shard count; the constructor fails if any
// config write fails (nothing durable was acknowledged, so there is
// nothing to recover).
func NewShardedService(kind sharedopt.GameKind, opts []sharedopt.Optimization, horizon core.Slot, writers []io.Writer, cfg ShardedConfig) (*ShardedService, error) {
	if kind != sharedopt.Additive && kind != sharedopt.Substitutive {
		return nil, fmt.Errorf("resilience: unknown game kind %v", kind)
	}
	n := len(writers)
	if n < 1 {
		return nil, errors.New("resilience: sharded service needs at least one journal writer")
	}
	links := make([]ShardTransport, n)
	for i, w := range writers {
		h, err := NewShardHost(kind, opts, horizon, i, n, timedJournal(w, cfg.Obs, i))
		if err != nil {
			return nil, err
		}
		links[i] = h
	}
	return NewShardedServiceOver(kind, opts, horizon, links, cfg)
}

// timedJournal wraps shard i's journal target so that, with a registry,
// every durable write's latency (the fsync, on a FileLog) lands in
// shard<i>.journal_write_ns. TimedWriter passes bytes through untouched,
// so the journal image is identical with or without it.
func timedJournal(w io.Writer, reg *obs.Registry, i int) io.Writer {
	if reg == nil {
		return w
	}
	return obs.TimedWriter{W: w, H: reg.Histogram(fmt.Sprintf("shard%d.journal_write_ns", i), nil)}
}

// NewShardedServiceOver opens a sharded tier over caller-provided shard
// transports — loopback ShardHosts, TCP ShardClients, or a mix. The
// constructor handshakes with every link (a Stats call) and refuses
// links whose shard identity or tier config disagree with the
// arguments, so a misrouted address fails loudly at startup instead of
// corrupting settlement later.
func NewShardedServiceOver(kind sharedopt.GameKind, opts []sharedopt.Optimization, horizon core.Slot, links []ShardTransport, cfg ShardedConfig) (*ShardedService, error) {
	if kind != sharedopt.Additive && kind != sharedopt.Substitutive {
		return nil, fmt.Errorf("resilience: unknown game kind %v", kind)
	}
	n := len(links)
	if n < 1 {
		return nil, errors.New("resilience: sharded service needs at least one shard transport")
	}
	settle, err := newService(kind, opts, horizon)
	if err != nil {
		return nil, err
	}
	s := &ShardedService{
		kind:     kind,
		horizon:  horizon,
		maxBatch: cfg.MaxBatch,
		timeout:  cfg.CallTimeout,
		shards:   make([]*shard, n),
		settle:   settle,
		tm:       newTierMetrics(cfg.Obs, n),
	}
	want := optCosts(opts)
	for i, link := range links {
		ctx, cancel := s.callCtx()
		info, err := link.Stats(ctx)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("resilience: shard %d handshake: %w", i, err)
		}
		if info.Shard != i || info.Shards != n {
			return nil, fmt.Errorf("resilience: link %d fronts shard %d of %d, want shard %d of %d", i, info.Shard, info.Shards, i, n)
		}
		if info.Game != gameName(kind) || info.Horizon != horizon || !sameOptCosts(info.Opts, want) {
			return nil, fmt.Errorf("resilience: shard %d disagrees with the tier on game config", i)
		}
		s.shards[i] = newShard(link, newShardMetrics(cfg.Obs, i))
	}
	return s, nil
}

// sameOptCosts compares two journal-form catalogs.
func sameOptCosts(a, b []OptCost) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// callCtx builds the per-call context for a transport operation.
func (s *ShardedService) callCtx() (context.Context, context.CancelFunc) {
	if s.timeout > 0 {
		return context.WithTimeout(context.Background(), s.timeout)
	}
	return context.Background(), func() {}
}

// Shards returns the shard count.
func (s *ShardedService) Shards() int { return len(s.shards) }

// Wedged returns the error that wedged shard i, or nil if it is healthy.
func (s *ShardedService) Wedged(i int) error {
	sh := s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.wedged
}

// WedgedShards returns the indices of wedged shards, in order.
func (s *ShardedService) WedgedShards() []int {
	var out []int
	for i, sh := range s.shards {
		sh.mu.Lock()
		if sh.wedged != nil {
			out = append(out, i)
		}
		sh.mu.Unlock()
	}
	return out
}

// ShardStats returns every shard's counters, indexed by shard; they are
// the counters the tier exports as shard<i>.*.
func (s *ShardedService) ShardStats() []ShardCounters {
	out := make([]ShardCounters, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.Lock()
		m := sh.om
		out[i] = ShardCounters{
			Accepted:    m.accepted.Load(),
			Rejected:    m.rejected.Load(),
			Overloaded:  m.overloaded.Load(),
			ReadOnly:    m.readOnly.Load(),
			Unavailable: m.unavailable.Load(),
			Settled:     m.settled.Load(),
			Pending:     uint64(len(sh.batch) + len(sh.frozen)),
		}
		sh.mu.Unlock()
	}
	return out
}

// wedgeLocked marks shard i read-only with cause. sh.mu must be held.
func (s *ShardedService) wedgeLocked(i int, cause error) {
	sh := s.shards[i]
	if sh.wedged == nil {
		sh.wedged = fmt.Errorf("%w: shard %d: %w", ErrShardWedged, i, cause)
		sh.om.wedged.Inc()
	}
}

// SubmitAdditiveBid routes the bid to its user's shard, applies and
// journals it there, and batches it for the next settlement. Duplicates
// of already-accepted bids return nil without re-batching (the
// idempotent-retry contract); a wedged shard returns ErrShardWedged; a
// full batch returns ErrOverloaded; an unreachable shard returns
// ErrShardUnavailable, leaving the bid in doubt until a retry or the
// next settlement's resolution decides it.
//
// The router copies the bid once; the batched bid and its journal record
// share the copy, and neither is modified afterwards.
func (s *ShardedService) SubmitAdditiveBid(opt core.OptID, bid core.OnlineBid) error {
	p := pendingBid{additive: true, opt: opt, abid: core.OnlineBid{
		User: bid.User, Start: bid.Start, End: bid.End,
		Values: append([]econ.Money(nil), bid.Values...),
	}}
	return s.submit(bid.User, p, additiveBidRecord(opt, p.abid))
}

// SubmitSubstitutiveBid is SubmitAdditiveBid for the substitutive game.
func (s *ShardedService) SubmitSubstitutiveBid(bid core.OnlineSubstBid) error {
	p := pendingBid{additive: false, sbid: core.OnlineSubstBid{
		User: bid.User, Opts: append([]core.OptID(nil), bid.Opts...),
		Start: bid.Start, End: bid.End,
		Values: append([]econ.Money(nil), bid.Values...),
	}}
	return s.submit(bid.User, p, substBidRecord(p.sbid))
}

// submit runs the routed accept-then-batch protocol for one submission.
// The shard lock is released during the transport call, so submissions
// pipeline: admission counts in-flight calls against MaxBatch, and the
// durable sequence in the acknowledgment restores journal order at fold
// time. The acknowledgment's sequence tells a duplicate from a fresh
// accept, so the router digests a record only when a delivery leaves
// it in doubt.
func (s *ShardedService) submit(u core.UserID, p pendingBid, rec Record) error {
	i := ShardFor(u, len(s.shards))
	sh := s.shards[i]
	sh.mu.Lock()
	for sh.settling && sh.wedged == nil {
		sh.idle.Wait()
	}
	if sh.wedged != nil {
		sh.om.readOnly.Inc()
		err := sh.wedged
		sh.mu.Unlock()
		return err
	}
	if s.maxBatch > 0 && len(sh.batch)+sh.inflight >= s.maxBatch {
		sh.om.overloaded.Inc()
		pending := len(sh.batch) + sh.inflight
		sh.mu.Unlock()
		return fmt.Errorf("%w: shard %d batch full (%d pending)", ErrOverloaded, i, pending)
	}
	sh.inflight++
	sh.mu.Unlock()

	ctx, cancel := s.callCtx()
	res, err := sh.link.Submit(ctx, rec)
	cancel()

	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.inflight--
	if sh.inflight == 0 {
		sh.idle.Broadcast()
	}
	if err != nil {
		switch {
		case errors.Is(err, ErrJournalBroken):
			s.wedgeLocked(i, err)
			sh.om.readOnly.Inc()
			return sh.wedged
		case errors.Is(err, ErrShardUnavailable):
			sh.om.unavailable.Inc()
			// Fate unknown: the shard may have journaled the bid before
			// the reply was lost. Remember it so settlement resolves it
			// by idempotent resubmission before the next marker.
			sh.indoubt = append(sh.indoubt, indoubtBid{p: p, rec: rec, fp: digest(rec.canonical())})
			return fmt.Errorf("resilience: shard %d: %w", i, err)
		default:
			sh.om.rejected.Inc()
			if len(sh.indoubt) > 0 {
				// Definitively rejected: nothing durable to resolve.
				sh.dropIndoubtLocked(digest(rec.canonical()))
			}
			return err
		}
	}
	if sh.batched.has(res.Seq) {
		return nil // duplicate: already journaled and already batched/settled
	}
	// Fresh accept — or a non-fresh acknowledgment whose original reply
	// was lost (the shard journaled it, this router never batched it):
	// either way the bid is durable exactly once and must fold exactly
	// once.
	p.seq = res.Seq
	sh.om.accepted.Inc()
	sh.batch = append(sh.batch, p)
	sh.batched.add(res.Seq)
	sh.om.batchHigh.Observe(uint64(len(sh.batch)))
	return nil
}

// foldBatchLocked replays one shard's frozen batch into the settlement
// game. The shard admitted every bid under the rules settlement applies,
// so a rejection here means the journal is one this code cannot have
// written (ErrPolicyDiverged): the shard is wedged and the rest of its
// batch is skipped — the same rule recovery applies, so live and
// recovered settlement agree. s.mu and sh.mu must be held.
func (s *ShardedService) foldBatchLocked(i int, batch []pendingBid) {
	sh := s.shards[i]
	for k, p := range batch {
		if err := p.applyTo(s.settle); err != nil {
			s.wedgeLocked(i, fmt.Errorf("%w: settling accepted bid of user %d: %w", ErrPolicyDiverged, p.user(), err))
			sh.om.settled.Add(uint64(k))
			return
		}
	}
	sh.om.settled.Add(uint64(len(batch)))
}

// foldFrozenLocked folds a frozen batch in journal order: pipelined
// acknowledgments append to the batch in arrival order, so the fold
// sorts by the durable sequence first — the order recovery replays.
func (s *ShardedService) foldFrozenLocked(i int, frozen []pendingBid) {
	sort.Slice(frozen, func(a, b int) bool { return frozen[a].seq < frozen[b].seq })
	s.foldBatchLocked(i, frozen)
}

// resolveIndoubtLocked drives shard i's in-doubt submissions to a
// definitive outcome by idempotent resubmission, before the settlement
// marker freezes the window. A bid the shard had journaled (reply lost)
// is acknowledged as a duplicate with its original sequence: it joins
// the batch unless a later retry already batched it. One the shard never
// saw is journaled now or definitively rejected. Returns false if the
// shard is unreachable — the round cannot mark it yet. s.mu and sh.mu
// held.
func (s *ShardedService) resolveIndoubtLocked(i int, sh *shard) bool {
	for len(sh.indoubt) > 0 {
		in := sh.indoubt[0]
		ctx, cancel := s.callCtx()
		res, err := sh.link.Submit(ctx, in.rec)
		cancel()
		if err != nil {
			switch {
			case errors.Is(err, ErrShardUnavailable):
				return false
			case errors.Is(err, ErrJournalBroken):
				s.wedgeLocked(i, err)
				sh.indoubt = nil
				return true
			default:
				// Definitive rejection: never journaled, nothing to fold.
				// The caller already saw unavailable, so no outcome
				// counter moves here.
				sh.indoubt = sh.indoubt[1:]
			}
			continue
		}
		sh.indoubt = sh.indoubt[1:]
		if sh.batched.has(res.Seq) {
			continue // a later retry already batched it
		}
		in.p.seq = res.Seq
		sh.om.accepted.Inc()
		sh.batch = append(sh.batch, in.p)
		sh.batched.add(res.Seq)
	}
	return true
}

// anyMarkedLocked reports whether the in-progress round has a durable
// marker on any shard. s.mu must be held.
func (s *ShardedService) anyMarkedLocked() bool {
	for _, sh := range s.shards {
		sh.mu.Lock()
		m := sh.marked
		sh.mu.Unlock()
		if m {
			return true
		}
	}
	return false
}

// abandonRoundLocked rolls back a settlement round no shard acknowledged:
// frozen batches return to the head of their shards' queues and the
// round state clears. Safe exactly because nothing durable happened.
func (s *ShardedService) abandonRoundLocked() {
	for _, sh := range s.shards {
		sh.mu.Lock()
		if len(sh.frozen) > 0 {
			sh.batch = append(sh.frozen, sh.batch...)
			sh.frozen = nil
		}
		sh.marked = false
		sh.mu.Unlock()
	}
	s.phase = phaseIdle
}

// errAllWedged is the tier-dead error: nothing can be made durable.
func (s *ShardedService) errAllWedged() error {
	return fmt.Errorf("%w: all %d shards: %w", ErrJournalBroken, len(s.shards), ErrShardWedged)
}

// settleRoundLocked drives the in-progress settlement round (adv when
// closing is false, close otherwise) as far as the shards allow. Per
// shard, in index order: wait out in-flight submissions, resolve
// in-doubt ones, freeze the batch, and make the marker durable. A shard
// whose marker is already durable only contributes its frozen batch; a
// wedged shard freezes without a marker (its bids are durable ahead of
// the marker it will never write — recovery folds such a tail into
// exactly this window, so live settlement must too); an unreachable
// shard parks the round, which a later call retries idempotently. When
// every answerable shard is marked, the frozen batches fold in
// shard-index order (journal order within each) and the settlement game
// advances or closes. s.mu must be held.
func (s *ShardedService) settleRoundLocked(closing bool) (core.SlotReport, error) {
	window := int(s.settle.Now()) + 1
	unreachable := 0
	for i, sh := range s.shards {
		sh.mu.Lock()
		if sh.wedged != nil {
			sh.frozen = append(sh.frozen, sh.batch...)
			sh.batch = nil
			sh.mu.Unlock()
			continue
		}
		if sh.marked {
			sh.mu.Unlock()
			continue
		}
		sh.settling = true
		for sh.inflight > 0 {
			sh.idle.Wait()
		}
		if sh.wedged != nil { // wedged while we waited
			sh.settling = false
			sh.idle.Broadcast()
			sh.frozen = append(sh.frozen, sh.batch...)
			sh.batch = nil
			sh.mu.Unlock()
			continue
		}
		if !s.resolveIndoubtLocked(i, sh) {
			sh.settling = false
			sh.idle.Broadcast()
			unreachable++
			sh.mu.Unlock()
			continue
		}
		if sh.wedged == nil {
			// Freeze: everything journaled ahead of this round's marker.
			// On a retry after a parked round, the new batch (bids
			// accepted while a straggler recovered) joins the frozen
			// window — those bids precede the marker in the journal.
			sh.frozen = append(sh.frozen, sh.batch...)
			sh.batch = nil
			ctx, cancel := s.callCtx()
			var err error
			if closing {
				err = sh.link.ClosePeriod(ctx)
			} else {
				err = sh.link.Advance(ctx, window)
			}
			cancel()
			switch {
			case err == nil:
				sh.marked = true
			case errors.Is(err, ErrShardUnavailable):
				unreachable++
				sh.om.unavailable.Inc()
			default:
				s.wedgeLocked(i, err)
			}
		}
		sh.settling = false
		sh.idle.Broadcast()
		sh.mu.Unlock()
	}
	if unreachable > 0 {
		return core.SlotReport{}, fmt.Errorf("resilience: settlement window %d pending on %d unreachable shard(s): %w", window, unreachable, ErrShardUnavailable)
	}
	marked := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.marked {
			marked++
		}
		sh.mu.Unlock()
	}
	if marked == 0 {
		s.abandonRoundLocked()
		return core.SlotReport{}, s.errAllWedged()
	}
	for i, sh := range s.shards {
		sh.mu.Lock()
		if len(sh.frozen) > 0 {
			s.foldFrozenLocked(i, sh.frozen)
			sh.frozen = nil
		}
		sh.marked = false
		sh.mu.Unlock()
	}
	s.phase = phaseIdle
	if closing {
		if _, err := s.settle.ClosePeriod(); err != nil {
			return core.SlotReport{}, err
		}
		return core.SlotReport{}, nil
	}
	return s.settle.AdvanceSlot()
}

// AdvanceSlot settles one billing window: it resolves in-doubt
// submissions, freezes every shard's batch behind a durable adv marker
// (shard-index order), folds the frozen batches into the settlement game
// in the same order, and advances the settlement slot. At least one
// shard must hold a durable marker for the advance to be acknowledged;
// a round blocked on unreachable shards returns ErrShardUnavailable and
// is retried by calling AdvanceSlot again — already-marked shards are
// not re-marked, so the retry is idempotent.
func (s *ShardedService) AdvanceSlot() (core.SlotReport, error) {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.settle.Closed() {
		return core.SlotReport{}, sharedopt.ErrPeriodOver
	}
	if s.phase == phaseClose {
		// A close round is partially durable (or abandonable): finish it
		// first — a close marker on any shard decides the period.
		if s.anyMarkedLocked() {
			if _, err := s.settleRoundLocked(true); err != nil {
				return core.SlotReport{}, err
			}
			return core.SlotReport{}, sharedopt.ErrPeriodOver
		}
		s.abandonRoundLocked()
	}
	s.phase = phaseAdvance
	report, err := s.settleRoundLocked(false)
	if err != nil {
		return core.SlotReport{}, err
	}
	s.tm.advances.Inc()
	s.tm.advanceNs.ObserveSince(start)
	return report, nil
}

// ClosePeriod settles the period early: every healthy shard journals a
// close marker (resolving in-doubt submissions and draining its batch
// first, same protocol as AdvanceSlot), the drained bids fold into
// settlement, and the settlement game closes. Idempotent like the
// single-shard service; a round blocked on unreachable shards returns
// ErrShardUnavailable and is retried by calling ClosePeriod again.
func (s *ShardedService) ClosePeriod() (map[core.UserID]econ.Money, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.settle.Closed() {
		return s.settle.ClosePeriod() // no state change, nothing to journal
	}
	if s.phase == phaseAdvance {
		// An advance round is partially durable (or abandonable): an adv
		// marker on any shard decides that window, so finish the advance
		// before closing.
		if s.anyMarkedLocked() {
			if _, err := s.settleRoundLocked(false); err != nil {
				return nil, err
			}
		} else {
			s.abandonRoundLocked()
		}
	}
	s.phase = phaseClose
	if _, err := s.settleRoundLocked(true); err != nil {
		return nil, err
	}
	return s.settle.ClosePeriod() // idempotent re-read of the settled map
}

// The read side delegates to the derived settlement game, which carries
// the global economic state (the shards only validate, deduplicate and
// journal).

// Kind returns the tier's valuation model.
func (s *ShardedService) Kind() sharedopt.GameKind { return s.kind }

// Horizon returns the period length in slots.
func (s *ShardedService) Horizon() core.Slot { return s.horizon }

// Now returns the last settled slot.
func (s *ShardedService) Now() core.Slot { return s.settle.Now() }

// Closed reports whether the period has ended.
func (s *ShardedService) Closed() bool { return s.settle.Closed() }

// Invoice returns a user's settled payments.
func (s *ShardedService) Invoice(u core.UserID) (econ.Money, bool) { return s.settle.Invoice(u) }

// Invoices returns a copy of all settled invoices.
func (s *ShardedService) Invoices() map[core.UserID]econ.Money { return s.settle.Invoices() }

// Revenue returns total payments charged so far.
func (s *ShardedService) Revenue() econ.Money { return s.settle.Revenue() }

// CostIncurred returns the summed cost of implemented optimizations.
func (s *ShardedService) CostIncurred() econ.Money { return s.settle.CostIncurred() }

// Surplus returns Revenue − CostIncurred under one lock.
func (s *ShardedService) Surplus() econ.Money { return s.settle.Surplus() }

// ImplementedOpts returns the implemented optimizations in ID order.
func (s *ShardedService) ImplementedOpts() []core.OptID { return s.settle.ImplementedOpts() }
