package core

import (
	"cmp"
	"slices"

	"sharedopt/internal/appendmap"
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

// substUser is SubstOn's record of one present user. start is the first
// bid's start slot and gates participation; the curve's own interval may
// begin earlier after a revision, matching the original mechanism's
// behavior.
type substUser struct {
	id         UserID
	opts       []OptID
	start      Slot
	curve      valueCurve
	granted    bool
	grantedOpt OptID
}

// byGrant orders granted users as SlotReport.Active lists them: by
// (granted optimization, user).
func byGrant(a, b *substUser) int {
	if c := cmp.Compare(a.grantedOpt, b.grantedOpt); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// substPaid is what SubstOn keeps of a departed user: their payment and,
// when it is positive, the optimization they were granted. A granted user
// always pays a positive share, because every cost is positive.
type substPaid struct {
	payment econ.Money
	opt     OptID
}

// SubstOn is the SubstOn Mechanism (paper, Mechanism 4): the online
// cost-sharing mechanism for substitutive optimizations. Each slot it runs
// the SubstOff phase loop over the residual values of the users present,
// forcing every previously granted (user, optimization) pair to stay
// serviced by that same optimization — a user may never switch
// optimizations, which is crucial for truthfulness (paper, Example 8).
// Users pay the cost-share of their granted optimization in force when
// their bid interval ends; as with AddOn, shares only fall over time, and
// departed users keep counting toward the share denominator.
//
// The game is indexed by slot events like AddOn: a pending list of present
// users not yet granted is all the phase loop reads, an active list of
// present granted users is kept in (optimization, user) order, users are
// filed under their end slots, and a charged user leaves behind only their
// payment and granted optimization, a 24-byte entry in an insert-only
// internal/appendmap table (Close trims the table's spare room). The
// forced sets enter the phase loop as per-optimization counts. The phase
// loop runs on scratch buffers reused across AdvanceSlot calls and on
// O(1) suffix-sum residual lookups.
type SubstOn struct {
	opts []Optimization
	// optPos maps each optimization to its position in opts — the index
	// space of the phase loop's slice-indexed results and the single
	// source for by-ID lookups (the optimization itself is opts[pos]).
	optPos      map[OptID]int
	now         Slot
	implemented map[OptID]Slot
	granted     []int // granted[pos]: users ever granted opts[pos], the forced set sizes

	users    map[UserID]*substUser            // present users
	pending  []*substUser                     // present users not yet granted, in no order
	active   []*substUser                     // present granted users, by (opt, user)
	ends     map[Slot][]UserID                // users by end slot; stale once an end moved
	departed appendmap.Map[UserID, substPaid] // charged users
	revenue  econ.Money                       // sum of departed payments

	bidders []substBidder // per-slot buffer, reused across AdvanceSlot
	fresh   []*substUser  // per-slot newly granted users, reused likewise
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
		implemented: make(map[OptID]Slot),
		granted:     make([]int, len(opts)),
		users:       make(map[UserID]*substUser),
		ends:        make(map[Slot][]UserID),
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
	_, gone := s.departed.Get(bid.User)
	if err := checkPresent(bid.User, gone); err != nil {
		return err
	}
	u := s.users[bid.User]
	if u == nil {
		u = &substUser{
			id:    bid.User,
			opts:  append([]OptID(nil), bid.Opts...),
			start: bid.Start,
			curve: newValueCurve(online),
		}
		s.users[bid.User] = u
		s.pending = append(s.pending, u)
		s.ends[bid.End] = append(s.ends[bid.End], bid.User)
		return nil
	}
	if err := checkSameSet(bid.User, u.opts, bid.Opts); err != nil {
		return err
	}
	prevEnd := u.curve.end
	if err := u.curve.revise(online, s.now); err != nil {
		return err
	}
	if u.curve.end != prevEnd {
		s.ends[u.curve.end] = append(s.ends[u.curve.end], bid.User)
	}
	return nil
}

// AdvanceSlot processes the next time slot by running the SubstOff phase
// loop over residual bids with all existing grants forced, then charging
// users whose interval ends at this slot.
func (s *SubstOn) AdvanceSlot() SlotReport {
	s.now++
	t := s.now
	report := SlotReport{Slot: t, Departures: make(map[UserID]econ.Money)}

	// Collect the pending users' residual bids, dropping the users granted
	// or charged since the last pass (a present user's end is never
	// before the slot being processed).
	bidders := s.bidders[:0]
	pending := s.pending[:0]
	for _, u := range s.pending {
		if u.granted || u.curve.end < t {
			continue
		}
		pending = append(pending, u)
		if t < u.start {
			continue
		}
		if r := u.curve.residual(t); r > 0 {
			bidders = append(bidders, substBidder{user: u.id, bid: r, opts: u.opts})
		}
	}
	clear(s.pending[len(pending):])
	s.pending = pending
	phases := substPhases(s.opts, bidders, s.granted, &s.scratch)
	s.bidders = bidders[:0]

	// phases.newGrants is sorted by (opt, user), the active list's order.
	fresh := s.fresh[:0]
	for _, g := range phases.newGrants {
		u := s.users[g.User]
		u.granted = true
		u.grantedOpt = g.Opt
		s.granted[s.optPos[g.Opt]]++
		fresh = append(fresh, u)
	}
	s.active = mergeSorted(s.active, fresh, byGrant)
	clear(fresh)
	s.fresh = fresh[:0]
	report.NewGrants = phases.newGrants
	for _, pos := range phases.order {
		j := s.opts[pos].ID
		if _, seen := s.implemented[j]; !seen {
			s.implemented[j] = t
			report.Implemented = append(report.Implemented, j)
		}
	}
	sortOpts(report.Implemented)

	if len(s.active) > 0 {
		report.Active = make([]Grant, len(s.active))
		for i, u := range s.active {
			report.Active[i] = Grant{User: u.id, Opt: u.grantedOpt}
		}
	}

	// Charge users whose interval ends now and drop them.
	grantedLeft := false
	for _, id := range s.ends[t] {
		u := s.users[id]
		if u.curve.end != t {
			continue // filed again under a later end
		}
		var payment econ.Money
		if u.granted {
			payment = phases.share[s.optPos[u.grantedOpt]]
			grantedLeft = true
		}
		report.Departures[id] = payment
		s.depart(u, payment)
	}
	delete(s.ends, t)
	if grantedLeft {
		s.active = slices.DeleteFunc(s.active, func(u *substUser) bool { return u.curve.end == t })
	}
	return report
}

// depart records a charged user's payment and granted optimization and
// forgets everything else about them. The pending list may still point at
// them until its next pass, so their curve is released here.
func (s *SubstOn) depart(u *substUser, payment econ.Money) {
	s.departed.Put(u.id, substPaid{payment: payment, opt: u.grantedOpt})
	s.revenue += payment
	delete(s.users, u.id)
	u.curve.release()
}

// Close settles every user who has not yet paid at the current cost-share
// of her granted optimization. It returns the payments charged by this
// call, and leaves the game holding only payments.
func (s *SubstOn) Close() map[UserID]econ.Money {
	settled := make(map[UserID]econ.Money, len(s.users))
	for id, u := range s.users {
		var payment econ.Money
		if u.granted {
			pos := s.optPos[u.grantedOpt]
			payment = s.opts[pos].Cost.DivCeil(s.granted[pos])
		}
		settled[id] = payment
		s.depart(u, payment)
	}
	// Fresh containers: Go maps never shrink, so clearing them would
	// keep the period's buckets.
	s.users = make(map[UserID]*substUser)
	s.ends = make(map[Slot][]UserID)
	s.pending, s.active = nil, nil
	s.departed.Clip()
	return settled
}

// Payment returns the user's final payment and whether she has been
// charged yet.
func (s *SubstOn) Payment(u UserID) (econ.Money, bool) {
	p, ok := s.departed.Get(u)
	return p.payment, ok
}

// Payments returns a new map of every charged user's payment.
func (s *SubstOn) Payments() map[UserID]econ.Money {
	out := make(map[UserID]econ.Money, s.departed.Len())
	for u, p := range s.departed.All() {
		out[u] = p.payment
	}
	return out
}

// GrantedOpt returns the optimization granted to the user, if any.
func (s *SubstOn) GrantedOpt(u UserID) (OptID, bool) {
	if usr := s.users[u]; usr != nil {
		return usr.grantedOpt, usr.granted
	}
	p, _ := s.departed.Get(u)
	return p.opt, p.payment > 0
}

// TotalRevenue returns the sum of all payments charged so far.
func (s *SubstOn) TotalRevenue() econ.Money { return s.revenue }

// CostIncurred sums the costs of implemented optimizations.
func (s *SubstOn) CostIncurred() econ.Money {
	var total econ.Money
	for j := range s.implemented {
		total += s.opts[s.optPos[j]].Cost
	}
	return total
}
