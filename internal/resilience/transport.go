package resilience

// The shard transport boundary. ShardedService routing talks to its
// per-shard intake through ShardTransport, an interface small enough to
// put a network under: submit one bid, make one settlement marker
// durable, close the period, report state. ShardHost is the server side
// — the durability and admission authority that owns the shard's
// journal and validator — and doubles as the in-process loopback
// transport, which is how the single-address-space tier keeps its exact
// pre-transport behavior. The TCP client/server pair lives in
// internal/resilience/transport.
//
// The error contract callers rely on:
//
//   - ErrShardUnavailable (wrapped): the call did not reach a decision —
//     deadline, connection loss, breaker open. The operation's fate is
//     unknown, exactly as after a crash; submits are safe to retry
//     blindly (digest dedup makes them idempotent) and markers are
//     safe to retry blindly (Advance is window-idempotent).
//   - ErrJournalBroken (wrapped): the shard decided, fail-stop. The
//     router wedges the shard (ErrShardWedged).
//   - anything else: a definitive mechanism rejection; the bid was not
//     journaled and retrying the same bytes is pointless.

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"sync"

	"sharedopt"
	"sharedopt/internal/appendmap"
	"sharedopt/internal/core"
)

// ErrShardUnavailable marks a shard transport call that reached no
// decision: the shard may or may not have journaled the operation.
// Unlike ErrShardWedged — a fail-stop verdict that makes the shard
// read-only — unavailability is transient: callers retry with backoff,
// and the circuit breaker (internal/resilience/transport) probes the
// shard until it answers again. Errors wrapping it satisfy
// errors.Is(err, ErrShardUnavailable).
var ErrShardUnavailable = errors.New("resilience: shard unavailable")

// SubmitResult acknowledges one durable submission.
type SubmitResult struct {
	// Seq is the journal sequence the submission holds on its shard. A
	// duplicate delivery is acknowledged with the original record's Seq,
	// so retried and duplicated deliveries are indistinguishable from
	// their first copy.
	Seq uint64 `json:"seq"`
	// Fresh is true when this delivery journaled the record, false when
	// digest dedup matched an earlier accept.
	Fresh bool `json:"fresh,omitempty"`
}

// ShardInfo is one shard's self-description, served by Stats. The
// router's constructor handshakes on it (shard identity and tier config
// must match), and chaos harnesses reconcile Bids against client-side
// accounting.
type ShardInfo struct {
	Shard   int       `json:"shard"`
	Shards  int       `json:"shards"`
	Game    string    `json:"game"`
	Horizon core.Slot `json:"horizon"`
	Opts    []OptCost `json:"opts,omitempty"`
	// Seq is the shard journal's last assigned sequence number.
	Seq uint64 `json:"seq"`
	// Now is the shard's last durable settlement window.
	Now    core.Slot `json:"now"`
	Closed bool      `json:"closed,omitempty"`
	// Bids counts fresh (non-duplicate) bid records journaled.
	Bids uint64 `json:"bids"`
	// Broken carries the journal failure wedging the shard, or "".
	Broken string `json:"broken,omitempty"`
}

// ShardTransport is the boundary between ShardedService routing and one
// shard's durable intake. Every call takes a context whose deadline
// propagates to the far side; a call that cannot reach a decision
// returns an error wrapping ErrShardUnavailable (see the contract at the
// top of this file).
type ShardTransport interface {
	// Submit validates and journals one bid record (KindAdditiveBid or
	// KindSubstBid). Duplicates of accepted bids succeed with the
	// original Seq and Fresh == false.
	Submit(ctx context.Context, rec Record) (SubmitResult, error)
	// Advance makes settlement window's adv marker durable. It is
	// idempotent per window: a shard already at or past window returns
	// nil, so duplicated marker deliveries are safe.
	Advance(ctx context.Context, window int) error
	// ClosePeriod makes the close marker durable; idempotent.
	ClosePeriod(ctx context.Context) error
	// Stats reports the shard's identity and durable state.
	Stats(ctx context.Context) (ShardInfo, error)
}

// ShardHost is one shard's durability and admission authority. It holds
// the shard's journal, the digests of the bids journaled so far (dedup),
// and a core.Validator carrying its users' declared curves until their
// end slots — everything needed to judge a bid exactly as the settlement
// game will, without running the mechanism. Once the period is over every
// bid is refused before the validator is consulted, so the host releases
// the validator's state then, and a closed shard keeps only its digests.
// It implements ShardTransport directly — that is the in-process loopback
// transport — and transport.ShardServer serves the same host over TCP.
// Methods are safe for concurrent use.
type ShardHost struct {
	mu      sync.Mutex // serializes admission, markers, and journal order
	kind    sharedopt.GameKind
	horizon core.Slot
	shard   int
	shards  int
	opts    []OptCost
	j       *Journal
	v       *core.Validator
	// seen maps the digest of each journaled bid's canonical payload to
	// its record's sequence, so a duplicate delivery — local retry or
	// network — is acknowledged with the original record's identity. Its
	// 40 bytes of key and value cost about 47 bytes per bid with the
	// append map's index, and it outlives the user's curve and the
	// period: a departed user's duplicate, or a pre-close bid's, is still
	// recognized.
	seen appendmap.Map[[sha256.Size]byte, uint64]
	// closing is set once the close marker is journaled.
	closing bool
	bids    uint64
}

// newShardHost builds the in-memory host for the shard that cfg (its
// journal's config record) describes, appending to j.
func newShardHost(cfg Record, kind sharedopt.GameKind, j *Journal) *ShardHost {
	return &ShardHost{
		kind: kind, horizon: cfg.Horizon, shard: cfg.Shard, shards: cfg.Shards, opts: cfg.Opts,
		j: j, v: core.NewValidator(catalogOf(cfg.Opts)),
	}
}

// NewShardHost opens a fresh shard whose journal on w opens with the
// shard's config record.
func NewShardHost(kind sharedopt.GameKind, opts []sharedopt.Optimization, horizon core.Slot, shard, shards int, w io.Writer) (*ShardHost, error) {
	if kind != sharedopt.Additive && kind != sharedopt.Substitutive {
		return nil, fmt.Errorf("resilience: unknown game kind %v", kind)
	}
	if shards < 1 || shard < 0 || shard >= shards {
		return nil, fmt.Errorf("resilience: shard index %d out of range for %d shards", shard, shards)
	}
	if err := sharedopt.ValidateCatalog(opts, horizon); err != nil {
		return nil, err
	}
	cfg := shardConfigRecord(kind, opts, horizon, shard, shards)
	h := newShardHost(cfg, kind, NewJournal(w))
	if err := h.j.Append(cfg); err != nil {
		return nil, fmt.Errorf("resilience: shard %d: %w", shard, err)
	}
	return h, nil
}

// ErrEmptyJournal is returned by RecoverShardHost and
// RecoverShardedService when no journal holds a config record to rebuild
// from.
var ErrEmptyJournal = errors.New("resilience: empty journal")

// errCorrupt wraps a replay failure: the journal holds only accepted
// operations, so a record replay rejects means the log is damaged.
func errCorrupt(rec Record, err error) error {
	return fmt.Errorf("resilience: corrupt journal: record %d (%s) failed replay: %w", rec.Seq, rec.Kind, err)
}

// RecoverShardHost rebuilds one shard host from its journal prefix and
// resumes appending to w — the restart path for a single killed shard
// process, while RecoverShardedService reconciles a whole tier. Replay
// restores the validator's clock and declared curves and the dedup
// digests, so submissions accepted before the crash remain
// idempotent after it; a journal that ends the period leaves the
// validator released, as the live host did.
func RecoverShardHost(recs []Record, w io.Writer) (*ShardHost, error) {
	if len(recs) == 0 {
		return nil, ErrEmptyJournal
	}
	cfg := recs[0]
	if cfg.Kind != KindShardConfig {
		return nil, fmt.Errorf("resilience: shard journal opens with %s record, want %s", cfg.Kind, KindShardConfig)
	}
	kind, err := gameKind(cfg.Game)
	if err != nil {
		return nil, err
	}
	if err := sharedopt.ValidateCatalog(catalogOf(cfg.Opts), cfg.Horizon); err != nil {
		return nil, fmt.Errorf("resilience: corrupt journal: config rejected: %w", err)
	}
	h := newShardHost(cfg, kind, NewJournalAt(w, recs[len(recs)-1].Seq))
	for _, rec := range recs[1:] {
		if err := h.replay(rec); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// replay re-applies one journaled record exactly as its original accept
// did.
func (h *ShardHost) replay(rec Record) error {
	if h.closing {
		return errCorrupt(rec, errors.New("record after close marker"))
	}
	switch rec.Kind {
	case KindAdditiveBid, KindSubstBid:
		if err := h.admit(rec); err != nil {
			return errCorrupt(rec, err)
		}
		// A live host never journals a digest twice; if a damaged journal
		// does, duplicates keep acknowledging the first record.
		key := digest(rec.canonical())
		if _, dup := h.seen.Get(key); !dup {
			h.seen.Put(key, rec.Seq)
		}
		h.bids++
	case KindAdvanceSlot:
		if h.closed() {
			return errCorrupt(rec, sharedopt.ErrPeriodOver)
		}
		h.v.Advance()
		h.releaseIfClosed()
	case KindClosePeriod:
		h.closing = true
		h.releaseIfClosed()
	default:
		return fmt.Errorf("resilience: corrupt journal: unexpected %s record %d", rec.Kind, rec.Seq)
	}
	return nil
}

// closed reports whether the period is over: every horizon slot settled,
// or the close marker journaled.
func (h *ShardHost) closed() bool { return h.closing || h.v.Now() >= h.horizon }

// releaseIfClosed frees the validator's curves once the period is over:
// admit refuses every bid from then on without consulting them. The
// dedup digests stop growing then, so their spare room goes too.
func (h *ShardHost) releaseIfClosed() {
	if h.closed() {
		h.v.Close()
		h.seen.Clip()
	}
}

// admit judges a bid record with the checks a plain sharedopt.Service
// makes, in its order and with its error text — period over, game kind,
// then the mechanism's admission rules — and records it in the validator
// if admitted.
func (h *ShardHost) admit(rec Record) error {
	if h.closed() {
		return sharedopt.ErrPeriodOver
	}
	if rec.Kind == KindAdditiveBid {
		if h.kind != sharedopt.Additive {
			return fmt.Errorf("sharedopt: additive bid on a %v service", h.kind)
		}
		return h.v.AdmitAdditive(rec.Opt, core.OnlineBid{User: rec.User, Start: rec.Start, End: rec.End, Values: rec.Values})
	}
	if h.kind != sharedopt.Substitutive {
		return fmt.Errorf("sharedopt: substitutive bid on a %v service", h.kind)
	}
	return h.v.AdmitSubstitutive(core.OnlineSubstBid{User: rec.User, Opts: rec.Set, Start: rec.Start, End: rec.End, Values: rec.Values})
}

// additiveBidRecord builds the journal record of an additive submission.
// The record shares the bid's Values; neither side may modify them.
func additiveBidRecord(opt core.OptID, bid core.OnlineBid) Record {
	return Record{
		Kind: KindAdditiveBid, User: bid.User, Opt: opt,
		Start: bid.Start, End: bid.End, Values: bid.Values,
	}
}

// substBidRecord builds the journal record of a substitutive submission.
// The record shares the bid's Opts and Values; neither side may modify
// them.
func substBidRecord(bid core.OnlineSubstBid) Record {
	return Record{
		Kind: KindSubstBid, User: bid.User, Set: bid.Opts,
		Start: bid.Start, End: bid.End, Values: bid.Values,
	}
}

// brokenErr classifies a shard mutation failure for the wire: the first
// journal append failure arrives unwrapped, so if the journal is now
// broken the error gains ErrJournalBroken (fail-stop, wedge); a
// mechanism rejection passes through untouched (definitive, no retry).
func (h *ShardHost) brokenErr(err error) error {
	if err == nil || errors.Is(err, ErrJournalBroken) {
		return err
	}
	if h.j.Err() != nil {
		return fmt.Errorf("%w: %w", ErrJournalBroken, err)
	}
	return err
}

// errIfBroken refuses every mutation once the journal is broken.
func (h *ShardHost) errIfBroken() error {
	if err := h.j.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrJournalBroken, err)
	}
	return nil
}

// unavailableErr wraps a context failure as transport-level
// unavailability: the caller's deadline expired before a decision.
func unavailableErr(err error) error {
	return fmt.Errorf("%w: %w", ErrShardUnavailable, err)
}

// Submit implements ShardTransport: check routing, then run the
// accept-then-journal protocol with digest dedup. The record is rebuilt
// in canonical form first, so a delivery's digest is the same whichever
// transport carried it. A fresh bid is marshaled once: the same
// canonical payload yields its digest and its journal line.
func (h *ShardHost) Submit(ctx context.Context, rec Record) (SubmitResult, error) {
	if err := ctx.Err(); err != nil {
		return SubmitResult{}, unavailableErr(err)
	}
	switch rec.Kind {
	case KindAdditiveBid:
		rec = additiveBidRecord(rec.Opt, core.OnlineBid{User: rec.User, Start: rec.Start, End: rec.End, Values: rec.Values})
	case KindSubstBid:
		rec = substBidRecord(core.OnlineSubstBid{User: rec.User, Opts: rec.Set, Start: rec.Start, End: rec.End, Values: rec.Values})
	default:
		return SubmitResult{}, fmt.Errorf("resilience: shard %d: submit of non-bid %s record", h.shard, rec.Kind)
	}
	if got := ShardFor(rec.User, h.shards); got != h.shard {
		return SubmitResult{}, fmt.Errorf("resilience: user %d routes to shard %d, delivered to shard %d", rec.User, got, h.shard)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.errIfBroken(); err != nil {
		return SubmitResult{}, err
	}
	canonical := rec.canonical()
	key := digest(canonical)
	if seq, ok := h.seen.Get(key); ok {
		return SubmitResult{Seq: seq}, nil
	}
	if err := h.admit(rec); err != nil {
		return SubmitResult{}, err
	}
	seq, err := h.j.appendCanonical(canonical)
	if err != nil {
		return SubmitResult{}, h.brokenErr(err)
	}
	h.seen.Put(key, seq)
	h.bids++
	return SubmitResult{Seq: seq, Fresh: true}, nil
}

// Advance implements ShardTransport. Windows count 1, 2, 3, …; the
// shard's durable window is its adv-marker count. A shard already at or
// past window acknowledges without journaling (the marker this delivery
// asks for is durable), which is what makes duplicated or retried
// marker deliveries safe. A gap of more than one window means the
// caller and shard disagree on history — a protocol error, not a
// transient. The marker moves the validator's clock; nothing is priced
// here.
func (h *ShardHost) Advance(ctx context.Context, window int) error {
	if err := ctx.Err(); err != nil {
		return unavailableErr(err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	now := int(h.v.Now())
	switch {
	case now >= window:
		return nil
	case now == window-1:
		if err := h.errIfBroken(); err != nil {
			return err
		}
		if h.closed() {
			return sharedopt.ErrPeriodOver
		}
		h.v.Advance()
		h.releaseIfClosed()
		return h.brokenErr(h.j.Append(Record{Kind: KindAdvanceSlot}))
	default:
		return fmt.Errorf("resilience: shard %d at window %d asked to advance to %d", h.shard, now, window)
	}
}

// ClosePeriod implements ShardTransport. It is idempotent: a period
// already over journals nothing.
func (h *ShardHost) ClosePeriod(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return unavailableErr(err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.errIfBroken(); err != nil {
		return err
	}
	if h.closed() {
		return nil
	}
	h.closing = true
	h.releaseIfClosed()
	return h.brokenErr(h.j.Append(Record{Kind: KindClosePeriod}))
}

// Stats implements ShardTransport.
func (h *ShardHost) Stats(ctx context.Context) (ShardInfo, error) {
	if err := ctx.Err(); err != nil {
		return ShardInfo{}, unavailableErr(err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	info := ShardInfo{
		Shard:   h.shard,
		Shards:  h.shards,
		Game:    gameName(h.kind),
		Horizon: h.horizon,
		Opts:    append([]OptCost(nil), h.opts...),
		Seq:     h.j.Seq(),
		Now:     h.v.Now(),
		Closed:  h.closed(),
		Bids:    h.bids,
	}
	if err := h.j.Err(); err != nil {
		info.Broken = err.Error()
	}
	return info, nil
}

// Broken returns the journal failure wedging this host, or nil.
func (h *ShardHost) Broken() error { return h.j.Err() }
