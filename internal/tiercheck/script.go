package tiercheck

import (
	"fmt"

	"sharedopt"
	"sharedopt/internal/core"
	"sharedopt/internal/econ"
	"sharedopt/internal/stats"
)

// OpKind names one scripted operation.
type OpKind int

const (
	Submit  OpKind = iota // a new user's first bid
	Dup                   // an exact resubmission of a user's latest bid
	Revise                // raised values, and maybe a later end, for a still-future bid
	Invalid               // a retroactive bid: refused, never journaled
	Advance               // settle the next slot
	Close                 // settle the period early; ends the script
)

func (k OpKind) String() string {
	return [...]string{"submit", "dup", "revise", "invalid", "advance", "close"}[k]
}

// Op is one scripted operation. A bid op names Opt in the additive game
// and Set in the substitutive one.
type Op struct {
	Kind       OpKind
	User       core.UserID
	Opt        core.OptID
	Set        []core.OptID
	Start, End core.Slot
	Values     []econ.Money
}

// Script is a deterministic workload for one period of one tier. The
// same script drives every tier flavor, so their outcomes compare op by
// op.
type Script struct {
	Kind    sharedopt.GameKind
	Horizon core.Slot
	Ops     []Op
}

// NewScript draws a workload from seed. Each slot brings minBids to
// maxBids new users' bids over future intervals (a substitutive user
// names one or more substitutes); sometimes an exact duplicate of an
// acknowledged bid; sometimes an upward revision of a still-future bid,
// half of them also extending its end; sometimes a retroactive bid; then
// an advance, or now and then an early close that ends the script.
func NewScript(seed uint64, kind sharedopt.GameKind, catalog []sharedopt.Optimization, horizon core.Slot, minBids, maxBids int) Script {
	r := stats.NewRNG(seed)
	sc := Script{Kind: kind, Horizon: horizon}
	var latest []Op // each user's latest acknowledged bid
	values := func(start, end core.Slot) []econ.Money {
		vals := make([]econ.Money, int(end-start+1))
		for i := range vals {
			vals[i] = econ.FromCents(int64(r.Intn(800)))
		}
		return vals
	}
	for now := core.Slot(0); now < horizon; now++ {
		for n := minBids + r.Intn(maxBids-minBids+1); n > 0; n-- {
			start := now + 1 + core.Slot(r.Intn(int(horizon-now)))
			end := start + core.Slot(r.Intn(int(horizon-start)+1))
			op := Op{Kind: Submit, User: core.UserID(len(latest) + 1), Start: start, End: end, Values: values(start, end)}
			if kind == sharedopt.Additive {
				op.Opt = catalog[r.Intn(len(catalog))].ID
			} else {
				op.Set = []core.OptID{catalog[r.Intn(len(catalog))].ID}
				for _, o := range catalog {
					if o.ID != op.Set[0] && r.Intn(2) == 0 {
						op.Set = append(op.Set, o.ID)
					}
				}
			}
			sc.Ops = append(sc.Ops, op)
			latest = append(latest, op)
		}
		if len(latest) > 0 && r.Intn(3) == 0 {
			d := latest[r.Intn(len(latest))]
			d.Kind = Dup
			sc.Ops = append(sc.Ops, d)
		}
		if r.Intn(3) == 0 {
			for _, c := range r.Perm(len(latest)) {
				if latest[c].Start <= now {
					continue
				}
				rev := latest[c]
				rev.Kind = Revise
				rev.Values = append([]econ.Money(nil), rev.Values...)
				for j := range rev.Values {
					rev.Values[j] += econ.FromCents(int64(1 + r.Intn(300)))
				}
				if rev.End < horizon && r.Intn(2) == 0 {
					end := rev.End + 1 + core.Slot(r.Intn(int(horizon-rev.End)))
					rev.Values = append(rev.Values, values(rev.End+1, end)...)
					rev.End = end
				}
				sc.Ops = append(sc.Ops, rev)
				latest[c] = rev // later duplicates resubmit the revised curve
				break
			}
		}
		if now > 0 && r.Intn(4) == 0 {
			sc.Ops = append(sc.Ops, Op{Kind: Invalid, User: 9999,
				Opt: catalog[0].ID, Set: []core.OptID{catalog[0].ID},
				Start: now, End: now, Values: []econ.Money{econ.Dollar}})
		}
		if now > 1 && r.Intn(10) == 0 {
			sc.Ops = append(sc.Ops, Op{Kind: Close})
			return sc
		}
		sc.Ops = append(sc.Ops, Op{Kind: Advance})
	}
	return sc
}

// Bids returns the number of bid submissions in the script.
func (sc Script) Bids() int {
	n := 0
	for _, op := range sc.Ops {
		if op.Kind != Advance && op.Kind != Close {
			n++
		}
	}
	return n
}

// Tier is what a script drives: resilience.ShardedService and
// sharedopt.Service both satisfy it.
type Tier interface {
	SubmitAdditiveBid(opt core.OptID, bid core.OnlineBid) error
	SubmitSubstitutiveBid(bid core.OnlineSubstBid) error
	AdvanceSlot() (core.SlotReport, error)
	ClosePeriod() (map[core.UserID]econ.Money, error)
	Now() core.Slot
	Closed() bool
}

// Submit sends bid op to t in the script's game.
func (sc Script) Submit(t Tier, op Op) error {
	if sc.Kind == sharedopt.Additive {
		return t.SubmitAdditiveBid(op.Opt, core.OnlineBid{
			User: op.User, Start: op.Start, End: op.End, Values: op.Values})
	}
	return t.SubmitSubstitutiveBid(core.OnlineSubstBid{
		User: op.User, Opts: op.Set, Start: op.Start, End: op.End, Values: op.Values})
}

// Mode is how Drive judges outcomes. Both modes retry transient outcomes
// to a definitive one.
type Mode int

const (
	// Strict requires every op's contractual outcome: bids, duplicates
	// and revisions acknowledged, retroactive bids refused, settlements
	// acknowledged.
	Strict Mode = iota
	// Tolerant accepts any outcome and skips settlements the tier has
	// already made, for driving a crashed tier or re-driving a recovered
	// one.
	Tolerant
)

// Hooks are Drive's optional callbacks.
type Hooks struct {
	Before  func(op int) error // runs before op i; an error ends the drive
	Settled func()             // runs after each acknowledged advance or close
}

// Drive runs sc against t and returns the tally of its submissions. In
// Strict mode the first op without its contractual outcome ends the
// drive with an error naming the op and user.
func Drive(t Tier, sc Script, mode Mode, h Hooks) (*Tally, error) {
	tally := NewTally()
	adv := core.Slot(0)
	for i, op := range sc.Ops {
		if h.Before != nil {
			if err := h.Before(i); err != nil {
				return tally, fmt.Errorf("before op %d: %w", i, err)
			}
		}
		var err error
		switch op.Kind {
		case Advance:
			if adv++; mode == Tolerant && adv <= t.Now() {
				continue // settled before the crash
			}
			err = Retry(func() error { _, err := t.AdvanceSlot(); return err })
		case Close:
			if t.Closed() {
				continue
			}
			err = Retry(func() error { _, err := t.ClosePeriod(); return err })
		default:
			err = tally.Submit(op.User, op.Kind == Dup, patient, func() error { return sc.Submit(t, op) })
		}
		switch {
		case mode == Tolerant:
		case op.Kind == Invalid && err == nil:
			return tally, fmt.Errorf("op %d: retroactive bid of user %d accepted", i, op.User)
		case op.Kind != Invalid && err != nil:
			return tally, fmt.Errorf("op %d (%v, user %d): %w", i, op.Kind, op.User, err)
		}
		if err == nil && (op.Kind == Advance || op.Kind == Close) && h.Settled != nil {
			h.Settled()
		}
	}
	return tally, nil
}
