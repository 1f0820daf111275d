package core

import (
	"cmp"
	"slices"

	"sharedopt/internal/econ"
)

// OnlineSubstBid declares a user's substitutive demand in an online game:
// the substitute set Ji, the service interval [Start, End], and per-slot
// values obtained in each slot if she has access to at least one
// optimization in Ji.
type OnlineSubstBid struct {
	User   UserID
	Opts   []OptID
	Start  Slot
	End    Slot
	Values []econ.Money
}

// Validate reports an error if the bid is structurally malformed.
func (b OnlineSubstBid) Validate() error {
	if err := (SubstBid{User: b.User, Opts: b.Opts}).Validate(); err != nil {
		return err
	}
	return b.online().Validate()
}

// online returns the bid's interval and values as an OnlineBid.
func (b OnlineSubstBid) online() OnlineBid {
	return OnlineBid{User: b.User, Start: b.Start, End: b.End, Values: b.Values}
}

// substUser is SubstOn's record of one user. start is the first bid's
// start slot and gates participation; the curve's own interval may begin
// earlier after a revision, matching the original mechanism's behavior.
type substUser struct {
	opts       []OptID
	start      Slot
	curve      valueCurve
	granted    bool
	grantedOpt OptID
	paid       bool
	payment    econ.Money
}

// SubstOn is the SubstOn Mechanism (paper, Mechanism 4): the online
// cost-sharing mechanism for substitutive optimizations. Each slot it runs
// the SubstOff phase loop over the residual values of users seen so far,
// forcing every previously granted (user, optimization) pair to stay
// serviced by that same optimization — a user may never switch
// optimizations, which is crucial for truthfulness (paper, Example 8).
// Users pay the cost-share of their granted optimization in force when
// their bid interval ends; as with AddOn, shares only fall over time, and
// departed users keep counting toward the share denominator.
//
// The per-slot phase loop runs on scratch buffers reused across
// AdvanceSlot calls and on O(1) suffix-sum residual lookups.
type SubstOn struct {
	opts []Optimization
	// optPos maps each optimization to its position in opts — the index
	// space of the phase loop's slice-indexed results and the single
	// source for by-ID lookups (the optimization itself is opts[pos]).
	optPos      map[OptID]int
	now         Slot
	users       map[UserID]*substUser
	implemented map[OptID]Slot
	granted     map[OptID][]UserID // forced sets, maintained incrementally

	bidders []substBidder // per-slot buffer, reused across AdvanceSlot
	scratch substScratch
}

// NewSubstOn returns a new online substitutive game over the given
// optimizations. It panics on invalid or duplicate optimizations.
func NewSubstOn(opts []Optimization) *SubstOn {
	if _, err := validateOpts(opts); err != nil {
		panic(err)
	}
	optPos := make(map[OptID]int, len(opts))
	for pos, o := range opts {
		optPos[o.ID] = pos
	}
	return &SubstOn{
		opts:        append([]Optimization(nil), opts...),
		optPos:      optPos,
		users:       make(map[UserID]*substUser),
		implemented: make(map[OptID]Slot),
		granted:     make(map[OptID][]UserID),
	}
}

// Now returns the last processed slot (0 if none yet).
func (s *SubstOn) Now() Slot { return s.now }

// Optimizations returns the game's catalog in ascending ID order.
func (s *SubstOn) Optimizations() []Optimization {
	out := append([]Optimization(nil), s.opts...)
	slices.SortFunc(out, func(a, b Optimization) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// Implemented reports whether the optimization has been implemented and at
// which slot.
func (s *SubstOn) Implemented(opt OptID) (Slot, bool) {
	at, ok := s.implemented[opt]
	return at, ok
}

// Submit places or revises a bid. New bids must start after the last
// processed slot. A revision may only increase per-slot values and extend
// the interval, and may not change the substitute set.
func (s *SubstOn) Submit(bid OnlineSubstBid) error {
	if err := bid.Validate(); err != nil {
		return err
	}
	if err := checkKnownSet(bid, s.optPos); err != nil {
		return err
	}
	online := bid.online()
	if err := checkStart(online, s.now); err != nil {
		return err
	}
	u := s.users[bid.User]
	if u == nil {
		s.users[bid.User] = &substUser{
			opts:  append([]OptID(nil), bid.Opts...),
			start: bid.Start,
			curve: newValueCurve(online),
		}
		return nil
	}
	if err := checkPresent(bid.User, u.paid); err != nil {
		return err
	}
	if err := checkSameSet(bid.User, u.opts, bid.Opts); err != nil {
		return err
	}
	return u.curve.revise(online, s.now)
}

// AdvanceSlot processes the next time slot by running the SubstOff phase
// loop over residual bids with all existing grants forced, then charging
// users whose interval ends at this slot.
func (s *SubstOn) AdvanceSlot() SlotReport {
	s.now++
	t := s.now
	report := SlotReport{Slot: t, Departures: make(map[UserID]econ.Money)}

	bidders := s.bidders[:0]
	for id, u := range s.users {
		if u.granted || t < u.start {
			continue
		}
		r := u.curve.residual(t)
		if r <= 0 {
			continue
		}
		bidders = append(bidders, substBidder{user: id, bid: r, opts: u.opts})
	}
	phases := substPhases(s.opts, bidders, s.granted, &s.scratch)
	s.bidders = bidders[:0]

	for _, g := range phases.newGrants {
		u := s.users[g.User]
		u.granted = true
		u.grantedOpt = g.Opt
		s.granted[g.Opt] = append(s.granted[g.Opt], g.User)
	}
	report.NewGrants = phases.newGrants
	for _, pos := range phases.order {
		j := s.opts[pos].ID
		if _, seen := s.implemented[j]; !seen {
			s.implemented[j] = t
			report.Implemented = append(report.Implemented, j)
		}
	}
	sortOpts(report.Implemented)

	for id, u := range s.users {
		if u.granted && t >= u.start && t <= u.curve.end {
			report.Active = append(report.Active, Grant{User: id, Opt: u.grantedOpt})
		}
	}
	sortGrants(report.Active)

	// Charge users whose interval ends now, releasing their curves.
	for id, u := range s.users {
		if u.paid || u.curve.end != t {
			continue
		}
		u.paid = true
		u.curve.release()
		if u.granted {
			u.payment = phases.share[s.optPos[u.grantedOpt]]
		}
		report.Departures[id] = u.payment
	}
	return report
}

// Close settles every user who has not yet paid at the current cost-share
// of her granted optimization. It returns the payments charged by this
// call.
func (s *SubstOn) Close() map[UserID]econ.Money {
	settled := make(map[UserID]econ.Money)
	for id, u := range s.users {
		if u.paid {
			continue
		}
		u.paid = true
		if u.granted {
			u.payment = s.opts[s.optPos[u.grantedOpt]].Cost.DivCeil(len(s.granted[u.grantedOpt]))
		}
		settled[id] = u.payment
	}
	return settled
}

// Payment returns the user's final payment and whether she has been
// charged yet.
func (s *SubstOn) Payment(u UserID) (econ.Money, bool) {
	usr := s.users[u]
	if usr == nil || !usr.paid {
		return 0, false
	}
	return usr.payment, true
}

// GrantedOpt returns the optimization granted to the user, if any.
func (s *SubstOn) GrantedOpt(u UserID) (OptID, bool) {
	usr := s.users[u]
	if usr == nil || !usr.granted {
		return 0, false
	}
	return usr.grantedOpt, true
}

// TotalRevenue returns the sum of all payments charged so far.
func (s *SubstOn) TotalRevenue() econ.Money {
	var total econ.Money
	for _, u := range s.users {
		if u.paid {
			total += u.payment
		}
	}
	return total
}

// CostIncurred sums the costs of implemented optimizations.
func (s *SubstOn) CostIncurred() econ.Money {
	var total econ.Money
	for j := range s.implemented {
		total += s.opts[s.optPos[j]].Cost
	}
	return total
}
