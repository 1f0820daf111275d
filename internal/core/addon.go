package core

import (
	"fmt"

	"sharedopt/internal/econ"
)

// OnlineBid declares a user's per-slot values for one optimization over a
// service interval [Start, End] (inclusive). Values[k] is the value in
// slot Start+k; len(Values) must equal End-Start+1 and every value must be
// non-negative.
type OnlineBid struct {
	User   UserID
	Start  Slot
	End    Slot
	Values []econ.Money
}

// Validate reports an error if the bid is structurally malformed.
func (b OnlineBid) Validate() error {
	if b.Start < 1 {
		return fmt.Errorf("core: user %d: bid start slot %d < 1", b.User, b.Start)
	}
	if b.End < b.Start {
		return fmt.Errorf("core: user %d: bid end %d before start %d", b.User, b.End, b.Start)
	}
	if got, want := len(b.Values), int(b.End-b.Start+1); got != want {
		return fmt.Errorf("core: user %d: bid has %d values for %d slots", b.User, got, want)
	}
	for k, v := range b.Values {
		if v < 0 {
			return fmt.Errorf("core: user %d: negative value %v at slot %d", b.User, v, b.Start+Slot(k))
		}
	}
	return nil
}

// Total returns the sum of all per-slot values.
func (b OnlineBid) Total() econ.Money {
	var t econ.Money
	for _, v := range b.Values {
		t += v
	}
	return t
}

// onlineUser is the mechanism's record of one user's declared value
// function and service status. The value function is a dense valueCurve,
// so residual lookups in AdvanceSlot are O(1).
type onlineUser struct {
	valueCurve
	serviced bool       // member of the cumulative serviced set CSj
	paid     bool       // departed and charged
	payment  econ.Money // final payment, set when paid
}

// AddOn is the AddOn Mechanism (paper, Mechanism 2): the online
// cost-sharing mechanism for a single additive optimization across
// multiple time slots. Usage:
//
//	game := core.NewAddOn(core.Optimization{ID: 1, Cost: cost})
//	game.Submit(bid)                // before the bid's first slot
//	report := game.AdvanceSlot()    // process slot 1, 2, ...
//	...
//	payments := game.Close()        // settle any still-active users
//
// At every slot the mechanism runs the Shapley Value Mechanism over each
// user's residual declared value; once a user is serviced she remains in
// the cumulative serviced set CSj (her bid is treated as infinite), so the
// per-user cost-share can only fall as newcomers join. A user pays the
// share in force when her bid interval ends. The mechanism is truthful in
// the model-free sense and cost-recovering (paper, Section 5.2).
//
// AdvanceSlot runs the mechanism on the sorted-prefix form of the Shapley
// mechanism over a scratch buffer reused across slots, so a warm game
// allocates only its per-slot report.
//
// Because optimizations are additive, a game with several optimizations is
// a set of independent AddOn instances; see AdditiveGame.
type AddOn struct {
	opt   Optimization
	now   Slot // last processed slot; 0 before the first AdvanceSlot
	users map[UserID]*onlineUser

	implemented   bool
	implementedAt Slot
	servicedCount int // |CSj|, maintained incrementally

	scratch []userBid // per-slot bidder buffer, reused across AdvanceSlot
}

// NewAddOn returns a new online game for one optimization. It panics if
// the optimization is invalid, since that is a configuration error.
func NewAddOn(opt Optimization) *AddOn {
	if err := opt.Validate(); err != nil {
		panic(err)
	}
	return &AddOn{opt: opt, users: make(map[UserID]*onlineUser)}
}

// Opt returns the optimization being priced.
func (a *AddOn) Opt() Optimization { return a.opt }

// Now returns the last processed slot (0 if none yet).
func (a *AddOn) Now() Slot { return a.now }

// Implemented reports whether the optimization has been implemented, and
// at which slot.
func (a *AddOn) Implemented() (Slot, bool) { return a.implementedAt, a.implemented }

// Submit places or revises a bid. A new bid must start strictly after the
// last processed slot (bids cannot be retroactive). A revision — a second
// Submit by the same user — may only increase values and extend the end:
// for every not-yet-processed slot the revised value must be at least the
// previously declared value, and previously declared future value may not
// be withdrawn (paper, Section 5.1).
func (a *AddOn) Submit(bid OnlineBid) error {
	if err := bid.Validate(); err != nil {
		return err
	}
	if err := checkStart(bid, a.now); err != nil {
		return err
	}
	u := a.users[bid.User]
	if u == nil {
		a.users[bid.User] = &onlineUser{valueCurve: newValueCurve(bid)}
		return nil
	}
	if err := checkPresent(bid.User, u.paid); err != nil {
		return err
	}
	return u.revise(bid, a.now)
}

// AdvanceSlot processes the next time slot: it recomputes the serviced set
// with the Shapley Value Mechanism over residual bids (forcing all
// previously serviced users in), grants access to newly serviced users,
// and charges users whose interval ends at this slot.
func (a *AddOn) AdvanceSlot() SlotReport {
	a.now++
	t := a.now
	report := SlotReport{Slot: t, Departures: make(map[UserID]econ.Money)}

	// Collect residual bids of not-yet-serviced users into the reusable
	// scratch buffer; previously serviced users are the forced set and
	// only contribute their count.
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

	// Charge users whose bid interval ends now. Serviced users pay the
	// current (lowest so far) share; never-serviced users pay nothing.
	// A charged user's declared values play no further part, so her
	// curve is released.
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

// Close settles every user who has not yet paid, charging serviced users
// the current cost-share. Call it at the end of the pricing period T, after
// the final AdvanceSlot. It returns the payments charged by this call.
func (a *AddOn) Close() map[UserID]econ.Money {
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

// currentShare returns the cost-share implied by the cumulative serviced
// set, or 0 if nobody has been serviced.
func (a *AddOn) currentShare() econ.Money {
	if a.servicedCount == 0 {
		return 0
	}
	return a.opt.Cost.DivCeil(a.servicedCount)
}

// Payment returns the user's final payment and whether she has been
// charged yet.
func (a *AddOn) Payment(u UserID) (econ.Money, bool) {
	usr := a.users[u]
	if usr == nil || !usr.paid {
		return 0, false
	}
	return usr.payment, true
}

// TotalRevenue returns the sum of all payments charged so far.
func (a *AddOn) TotalRevenue() econ.Money {
	var total econ.Money
	for _, u := range a.users {
		if u.paid {
			total += u.payment
		}
	}
	return total
}

// CostIncurred returns the optimization cost if it was implemented, else 0.
func (a *AddOn) CostIncurred() econ.Money {
	if a.implemented {
		return a.opt.Cost
	}
	return 0
}

// AdditiveGame prices a set of additive optimizations online by running
// one independent AddOn instance per optimization, which is exactly how
// the paper reduces the multi-optimization additive case (Section 5,
// "without loss of generality ... a single optimization j").
type AdditiveGame struct {
	games map[OptID]*AddOn
	order []OptID
	now   Slot
}

// NewAdditiveGame returns a game pricing every optimization in opts.
// It panics on duplicate or invalid optimizations.
func NewAdditiveGame(opts []Optimization) *AdditiveGame {
	g := &AdditiveGame{games: make(map[OptID]*AddOn, len(opts))}
	for _, o := range opts {
		if _, dup := g.games[o.ID]; dup {
			panic(fmt.Sprintf("core: duplicate optimization %d", o.ID))
		}
		g.games[o.ID] = NewAddOn(o)
		g.order = append(g.order, o.ID)
	}
	sortOpts(g.order)
	return g
}

// Now returns the last processed slot (0 if none yet).
func (g *AdditiveGame) Now() Slot { return g.now }

// Submit places or revises the user's bid for one optimization.
func (g *AdditiveGame) Submit(opt OptID, bid OnlineBid) error {
	if err := checkKnownOpt(opt, g.games); err != nil {
		return err
	}
	return g.games[opt].Submit(bid)
}

// AdvanceSlot processes the next slot in every per-optimization game and
// merges the reports. Departure payments are summed across optimizations.
func (g *AdditiveGame) AdvanceSlot() SlotReport {
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

// Close settles all per-optimization games and returns total payments
// charged by this call, per user.
func (g *AdditiveGame) Close() map[UserID]econ.Money {
	totals := make(map[UserID]econ.Money)
	for _, id := range g.order {
		for u, p := range g.games[id].Close() {
			totals[u] += p
		}
	}
	return totals
}

// Game returns the per-optimization AddOn instance.
func (g *AdditiveGame) Game(opt OptID) (*AddOn, bool) {
	a, ok := g.games[opt]
	return a, ok
}

// Optimizations returns the game's catalog in ascending ID order.
func (g *AdditiveGame) Optimizations() []Optimization {
	out := make([]Optimization, len(g.order))
	for i, id := range g.order {
		out[i] = g.games[id].opt
	}
	return out
}

// TotalRevenue sums revenue across optimizations.
func (g *AdditiveGame) TotalRevenue() econ.Money {
	var total econ.Money
	for _, id := range g.order {
		total += g.games[id].TotalRevenue()
	}
	return total
}

// CostIncurred sums the costs of implemented optimizations.
func (g *AdditiveGame) CostIncurred() econ.Money {
	var total econ.Money
	for _, id := range g.order {
		total += g.games[id].CostIncurred()
	}
	return total
}
