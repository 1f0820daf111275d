package core

import "fmt"

// The admission rules of the online mechanisms. AddOn (Mechanism 2) and
// SubstOn (Mechanism 4) stay truthful only if bids obey a few rules
// (paper, Section 5.1): a bid may not be retroactive, a revision may only
// raise values and extend the interval, a departed user may not bid
// again, and a substitutive user may not change her substitute set.
// Judging a bid needs the user's declared curve and nothing else — no
// Shapley pass — so each rule is written once here: AdditiveGame, AddOn
// and SubstOn apply them in Submit, and Validator applies them without a
// mechanism behind it.

// checkKnownOpt refuses an additive bid for an optimization the game does
// not price.
func checkKnownOpt[V any](opt OptID, known map[OptID]V) error {
	if _, ok := known[opt]; !ok {
		return fmt.Errorf("core: bid for unknown optimization %d", opt)
	}
	return nil
}

// checkKnownSet refuses a substitutive bid naming an optimization the
// game does not price.
func checkKnownSet[V any](bid OnlineSubstBid, known map[OptID]V) error {
	for _, j := range bid.Opts {
		if _, ok := known[j]; !ok {
			return fmt.Errorf("core: user %d bid for unknown optimization %d", bid.User, j)
		}
	}
	return nil
}

// checkStart refuses a retroactive bid: every bid, first or revision,
// must start after the last processed slot now.
func checkStart(bid OnlineBid, now Slot) error {
	if bid.Start <= now {
		return fmt.Errorf("core: user %d: retroactive bid starting at slot %d, current slot is %d",
			bid.User, bid.Start, now)
	}
	return nil
}

// checkPresent refuses a bid from a user who has departed: charged at
// her end slot, or settled by Close.
func checkPresent(u UserID, departed bool) error {
	if departed {
		return fmt.Errorf("core: user %d: bid after departure", u)
	}
	return nil
}

// checkSameSet refuses a revision that changes the substitute set.
func checkSameSet(u UserID, declared, revised []OptID) error {
	if !sameOptSet(declared, revised) {
		return fmt.Errorf("core: user %d: revision changes substitute set", u)
	}
	return nil
}

func sameOptSet(a, b []OptID) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[OptID]bool, len(a))
	for _, j := range a {
		set[j] = true
	}
	for _, j := range b {
		if !set[j] {
			return false
		}
	}
	return true
}

// Validator applies the online admission rules without running a
// mechanism. It holds the last processed slot and each user's declared
// curves — one per optimization for additive bids, one curve plus the
// substitute set for substitutive bids — and gives every bid exactly the
// verdict AdditiveGame.Submit or SubstOn.Submit would give in the same
// state, error text included. A user counts as departed once her curve's
// end slot has been processed (end ≤ now): that is the slot at which AddOn
// and SubstOn charge her and mark her paid. Judging a departed user's bid
// needs only that interval, so Advance drops the values of the curves
// ending at the processed slot. Close has no counterpart here; a caller
// that closes the period refuses later bids itself.
//
// A Validator is not safe for concurrent use.
type Validator struct {
	now      Slot
	additive map[OptID]map[UserID]*declared
	subst    map[UserID]*substDeclared
	// ends files every declared curve under the end slot it had when
	// declared or last extended. A revision that extends a curve files
	// it again; the entry left in the earlier bucket no longer matches
	// the curve's end and is skipped.
	ends map[Slot][]*declared
}

// substDeclared is one substitutive user's declared demand.
type substDeclared struct {
	opts []OptID
	declared
}

// NewValidator returns a validator for bids on the given catalog, at slot
// 0. The catalog is assumed valid; only its IDs are used.
func NewValidator(opts []Optimization) *Validator {
	v := &Validator{
		additive: make(map[OptID]map[UserID]*declared, len(opts)),
		subst:    make(map[UserID]*substDeclared),
		ends:     make(map[Slot][]*declared),
	}
	for _, o := range opts {
		v.additive[o.ID] = make(map[UserID]*declared)
	}
	return v
}

// Now returns the last processed slot.
func (v *Validator) Now() Slot { return v.now }

// Advance records that the next slot has been processed, and releases
// the values of the curves that end at it.
func (v *Validator) Advance() {
	v.now++
	for _, d := range v.ends[v.now] {
		if d.end == v.now {
			d.values = nil
		}
	}
	delete(v.ends, v.now)
}

// fileByEnd files a curve that was just declared or revised under its
// end slot, unless it is already filed there (its end was prevEnd).
func (v *Validator) fileByEnd(d *declared, prevEnd Slot) {
	if d.end != prevEnd {
		v.ends[d.end] = append(v.ends[d.end], d)
	}
}

// AdmitAdditive judges an additive bid, as AdditiveGame.Submit would, and
// records it if it is admitted.
func (v *Validator) AdmitAdditive(opt OptID, bid OnlineBid) error {
	if err := checkKnownOpt(opt, v.additive); err != nil {
		return err
	}
	if err := bid.Validate(); err != nil {
		return err
	}
	if err := checkStart(bid, v.now); err != nil {
		return err
	}
	users := v.additive[opt]
	d := users[bid.User]
	if d == nil {
		first := newDeclared(bid)
		users[bid.User] = &first
		v.fileByEnd(&first, 0)
		return nil
	}
	if err := checkPresent(bid.User, d.end <= v.now); err != nil {
		return err
	}
	prevEnd := d.end
	if err := d.revise(bid, v.now); err != nil {
		return err
	}
	v.fileByEnd(d, prevEnd)
	return nil
}

// AdmitSubstitutive judges a substitutive bid, as SubstOn.Submit would,
// and records it if it is admitted.
func (v *Validator) AdmitSubstitutive(bid OnlineSubstBid) error {
	if err := bid.Validate(); err != nil {
		return err
	}
	if err := checkKnownSet(bid, v.additive); err != nil {
		return err
	}
	online := bid.online()
	if err := checkStart(online, v.now); err != nil {
		return err
	}
	u := v.subst[bid.User]
	if u == nil {
		u = &substDeclared{opts: append([]OptID(nil), bid.Opts...), declared: newDeclared(online)}
		v.subst[bid.User] = u
		v.fileByEnd(&u.declared, 0)
		return nil
	}
	if err := checkPresent(bid.User, u.end <= v.now); err != nil {
		return err
	}
	if err := checkSameSet(bid.User, u.opts, bid.Opts); err != nil {
		return err
	}
	prevEnd := u.end
	if err := u.revise(online, v.now); err != nil {
		return err
	}
	v.fileByEnd(&u.declared, prevEnd)
	return nil
}
