package core

import (
	"fmt"

	"sharedopt/internal/econ"
)

// The scanning online mechanisms, kept as differential oracles for the
// event-indexed AddOn, AdditiveGame and SubstOn: every slot they range
// over every user ever seen, departed ones included. They are the
// mechanisms as they stood before indexing, changed only in their names
// and in how refSubstOn hands its forced sets to substPhases (as counts).

// refOnlineUser is refAddOn's record of one user.
type refOnlineUser struct {
	valueCurve
	serviced bool       // member of the cumulative serviced set CSj
	paid     bool       // departed and charged
	payment  econ.Money // final payment, set when paid
}

// refAddOn is the scanning AddOn Mechanism (paper, Mechanism 2).
type refAddOn struct {
	opt   Optimization
	now   Slot // last processed slot; 0 before the first AdvanceSlot
	users map[UserID]*refOnlineUser

	implemented   bool
	implementedAt Slot
	servicedCount int // |CSj|, maintained incrementally

	scratch []userBid // per-slot bidder buffer, reused across AdvanceSlot
}

func newRefAddOn(opt Optimization) *refAddOn {
	if err := opt.Validate(); err != nil {
		panic(err)
	}
	return &refAddOn{opt: opt, users: make(map[UserID]*refOnlineUser)}
}

func (a *refAddOn) Submit(bid OnlineBid) error {
	if err := bid.Validate(); err != nil {
		return err
	}
	if err := checkStart(bid, a.now); err != nil {
		return err
	}
	u := a.users[bid.User]
	if u == nil {
		a.users[bid.User] = &refOnlineUser{valueCurve: newValueCurve(bid)}
		return nil
	}
	if err := checkPresent(bid.User, u.paid); err != nil {
		return err
	}
	return u.revise(bid, a.now)
}

func (a *refAddOn) AdvanceSlot() SlotReport {
	a.now++
	t := a.now
	report := SlotReport{Slot: t, Departures: make(map[UserID]econ.Money)}

	bidders := a.scratch[:0]
	for id, u := range a.users {
		if u.serviced || t < u.start {
			continue
		}
		if r := u.residual(t); r > 0 {
			bidders = append(bidders, userBid{user: id, bid: r})
		}
	}
	sortBidsDesc(bidders)
	k := servicedPrefix(a.opt.Cost, bidders, a.servicedCount)

	if k+a.servicedCount > 0 && !a.implemented {
		a.implemented = true
		a.implementedAt = t
		report.Implemented = []OptID{a.opt.ID}
	}
	for _, ub := range bidders[:k] {
		a.users[ub.user].serviced = true
		a.servicedCount++
		report.NewGrants = append(report.NewGrants, Grant{User: ub.user, Opt: a.opt.ID})
	}
	for id, u := range a.users {
		if u.serviced && t >= u.start && t <= u.end {
			report.Active = append(report.Active, Grant{User: id, Opt: a.opt.ID})
		}
	}
	sortGrants(report.NewGrants)
	sortGrants(report.Active)

	share := a.currentShare()
	for id, u := range a.users {
		if u.paid || u.end != t {
			continue
		}
		u.paid = true
		u.release()
		if u.serviced {
			u.payment = share
		}
		report.Departures[id] = u.payment
	}
	a.scratch = bidders
	return report
}

func (a *refAddOn) Close() map[UserID]econ.Money {
	share := a.currentShare()
	settled := make(map[UserID]econ.Money)
	for id, u := range a.users {
		if u.paid {
			continue
		}
		u.paid = true
		if u.serviced {
			u.payment = share
		}
		settled[id] = u.payment
	}
	return settled
}

func (a *refAddOn) currentShare() econ.Money {
	if a.servicedCount == 0 {
		return 0
	}
	return a.opt.Cost.DivCeil(a.servicedCount)
}

func (a *refAddOn) Payment(u UserID) (econ.Money, bool) {
	usr := a.users[u]
	if usr == nil || !usr.paid {
		return 0, false
	}
	return usr.payment, true
}

func (a *refAddOn) TotalRevenue() econ.Money {
	var total econ.Money
	for _, u := range a.users {
		if u.paid {
			total += u.payment
		}
	}
	return total
}

func (a *refAddOn) CostIncurred() econ.Money {
	if a.implemented {
		return a.opt.Cost
	}
	return 0
}

// refAdditiveGame runs one refAddOn per optimization.
type refAdditiveGame struct {
	games map[OptID]*refAddOn
	order []OptID
	now   Slot
}

func newRefAdditiveGame(opts []Optimization) *refAdditiveGame {
	g := &refAdditiveGame{games: make(map[OptID]*refAddOn, len(opts))}
	for _, o := range opts {
		if _, dup := g.games[o.ID]; dup {
			panic(fmt.Sprintf("core: duplicate optimization %d", o.ID))
		}
		g.games[o.ID] = newRefAddOn(o)
		g.order = append(g.order, o.ID)
	}
	sortOpts(g.order)
	return g
}

func (g *refAdditiveGame) Submit(opt OptID, bid OnlineBid) error {
	if err := checkKnownOpt(opt, g.games); err != nil {
		return err
	}
	return g.games[opt].Submit(bid)
}

func (g *refAdditiveGame) AdvanceSlot() SlotReport {
	g.now++
	merged := SlotReport{Slot: g.now, Departures: make(map[UserID]econ.Money)}
	for _, id := range g.order {
		r := g.games[id].AdvanceSlot()
		merged.Implemented = append(merged.Implemented, r.Implemented...)
		merged.NewGrants = append(merged.NewGrants, r.NewGrants...)
		merged.Active = append(merged.Active, r.Active...)
		for u, p := range r.Departures {
			merged.Departures[u] += p
		}
	}
	sortOpts(merged.Implemented)
	sortGrants(merged.NewGrants)
	sortGrants(merged.Active)
	return merged
}

func (g *refAdditiveGame) Close() map[UserID]econ.Money {
	totals := make(map[UserID]econ.Money)
	for _, id := range g.order {
		for u, p := range g.games[id].Close() {
			totals[u] += p
		}
	}
	return totals
}

func (g *refAdditiveGame) Game(opt OptID) *refAddOn { return g.games[opt] }

func (g *refAdditiveGame) TotalRevenue() econ.Money {
	var total econ.Money
	for _, id := range g.order {
		total += g.games[id].TotalRevenue()
	}
	return total
}

func (g *refAdditiveGame) CostIncurred() econ.Money {
	var total econ.Money
	for _, id := range g.order {
		total += g.games[id].CostIncurred()
	}
	return total
}

// refSubstUser is refSubstOn's record of one user.
type refSubstUser struct {
	opts       []OptID
	start      Slot
	curve      valueCurve
	granted    bool
	grantedOpt OptID
	paid       bool
	payment    econ.Money
}

// refSubstOn is the scanning SubstOn Mechanism (paper, Mechanism 4).
type refSubstOn struct {
	opts        []Optimization
	optPos      map[OptID]int
	now         Slot
	users       map[UserID]*refSubstUser
	implemented map[OptID]Slot
	granted     map[OptID][]UserID // forced sets, maintained incrementally

	bidders []substBidder
	scratch substScratch
}

func newRefSubstOn(opts []Optimization) *refSubstOn {
	if _, err := validateOpts(opts); err != nil {
		panic(err)
	}
	optPos := make(map[OptID]int, len(opts))
	for pos, o := range opts {
		optPos[o.ID] = pos
	}
	return &refSubstOn{
		opts:        append([]Optimization(nil), opts...),
		optPos:      optPos,
		users:       make(map[UserID]*refSubstUser),
		implemented: make(map[OptID]Slot),
		granted:     make(map[OptID][]UserID),
	}
}

func (s *refSubstOn) Submit(bid OnlineSubstBid) error {
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
		s.users[bid.User] = &refSubstUser{
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

func (s *refSubstOn) AdvanceSlot() SlotReport {
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
	forced := make([]int, len(s.opts))
	for pos, o := range s.opts {
		forced[pos] = len(s.granted[o.ID])
	}
	phases := substPhases(s.opts, bidders, forced, &s.scratch)
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

func (s *refSubstOn) Close() map[UserID]econ.Money {
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

func (s *refSubstOn) Payment(u UserID) (econ.Money, bool) {
	usr := s.users[u]
	if usr == nil || !usr.paid {
		return 0, false
	}
	return usr.payment, true
}

func (s *refSubstOn) GrantedOpt(u UserID) (OptID, bool) {
	usr := s.users[u]
	if usr == nil || !usr.granted {
		return 0, false
	}
	return usr.grantedOpt, true
}

func (s *refSubstOn) TotalRevenue() econ.Money {
	var total econ.Money
	for _, u := range s.users {
		if u.paid {
			total += u.payment
		}
	}
	return total
}

func (s *refSubstOn) CostIncurred() econ.Money {
	var total econ.Money
	for j := range s.implemented {
		total += s.opts[s.optPos[j]].Cost
	}
	return total
}
