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
// mechanism. It holds the last processed slot and each present user's
// declared curves — one per optimization for additive bids, one curve plus
// the substitute set for substitutive bids — and gives every bid exactly
// the verdict AdditiveGame.Submit or SubstOn.Submit would give in the same
// state, error text included. A user departs once their curve's end slot
// has been processed: that is the slot at which AddOn and SubstOn charge
// them and drop them. Judging a departed user's bid needs only the fact
// that they departed, so Advance deletes the curves ending at the processed
// slot and keeps one departed mark per curve. Close has no counterpart
// here; a caller that closes the period refuses later bids itself.
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
	ends     map[Slot][]curveKey
	departed map[curveKey]struct{}
}

// curveKey names one declared curve: an additive user's curve for one
// optimization, or a substitutive user's curve (subst set, opt unused).
type curveKey struct {
	user  UserID
	opt   OptID
	subst bool
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
		ends:     make(map[Slot][]curveKey),
		departed: make(map[curveKey]struct{}),
	}
	for _, o := range opts {
		v.additive[o.ID] = make(map[UserID]*declared)
	}
	return v
}

// Now returns the last processed slot.
func (v *Validator) Now() Slot { return v.now }

// Advance records that the next slot has been processed, and marks the
// users whose curves end at it departed.
func (v *Validator) Advance() {
	v.now++
	for _, k := range v.ends[v.now] {
		// An entry whose curve no longer ends here was filed again
		// under a later end.
		if k.subst {
			if v.subst[k.user].end != v.now {
				continue
			}
			delete(v.subst, k.user)
		} else {
			if v.additive[k.opt][k.user].end != v.now {
				continue
			}
			delete(v.additive[k.opt], k.user)
		}
		v.departed[k] = struct{}{}
	}
	delete(v.ends, v.now)
}

// fileByEnd files a curve that was just declared or revised under its
// end slot, unless it is already filed there (its end was prevEnd).
func (v *Validator) fileByEnd(k curveKey, d *declared, prevEnd Slot) {
	if d.end != prevEnd {
		v.ends[d.end] = append(v.ends[d.end], k)
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
	k := curveKey{user: bid.User, opt: opt}
	_, gone := v.departed[k]
	if err := checkPresent(bid.User, gone); err != nil {
		return err
	}
	users := v.additive[opt]
	d := users[bid.User]
	if d == nil {
		first := newDeclared(bid)
		users[bid.User] = &first
		v.fileByEnd(k, &first, 0)
		return nil
	}
	prevEnd := d.end
	if err := d.revise(bid, v.now); err != nil {
		return err
	}
	v.fileByEnd(k, d, prevEnd)
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
	k := curveKey{user: bid.User, subst: true}
	_, gone := v.departed[k]
	if err := checkPresent(bid.User, gone); err != nil {
		return err
	}
	u := v.subst[bid.User]
	if u == nil {
		u = &substDeclared{opts: append([]OptID(nil), bid.Opts...), declared: newDeclared(online)}
		v.subst[bid.User] = u
		v.fileByEnd(k, &u.declared, 0)
		return nil
	}
	if err := checkSameSet(bid.User, u.opts, bid.Opts); err != nil {
		return err
	}
	prevEnd := u.end
	if err := u.revise(online, v.now); err != nil {
		return err
	}
	v.fileByEnd(k, &u.declared, prevEnd)
	return nil
}
