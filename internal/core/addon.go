package core

import (
	"cmp"
	"fmt"
	"slices"

	"sharedopt/internal/appendmap"
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

// onlineUser is AddOn's record of one present user: their declared value
// function, a dense valueCurve so residual lookups in AdvanceSlot are
// O(1), and whether they have joined the serviced set CSj.
type onlineUser struct {
	valueCurve
	id       UserID
	serviced bool // member of the cumulative serviced set CSj
}

func byUser(a, b *onlineUser) int { return cmp.Compare(a.id, b.id) }

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
// The game is indexed by slot events, so a slot's work is proportional to
// the users present in it, not to everyone seen so far. A user is present
// from their first bid until they are charged. The not-yet-serviced present
// users are a pending list, the only users a slot's Shapley pass reads;
// the serviced present users are an active list, kept in user order, that
// newly serviced users are merged into and that is pruned at departures;
// and every user is filed under their end slot, again under a later end if
// a revision extends it. A charged user leaves behind only their payment,
// a 16-byte entry in an insert-only internal/appendmap table, about 23
// bytes with its index (Close trims the table's spare room); CSj keeps
// counting them through servicedCount alone. The Shapley pass runs on the
// sorted-prefix form of the mechanism over a scratch buffer reused across
// slots, so a warm game allocates only its per-slot report.
//
// Because optimizations are additive, a game with several optimizations is
// a set of independent AddOn instances; see AdditiveGame.
type AddOn struct {
	opt Optimization
	now Slot // last processed slot; 0 before the first AdvanceSlot

	users    map[UserID]*onlineUser            // present users
	pending  []*onlineUser                     // present users not yet serviced, in no order
	active   []*onlineUser                     // present serviced users, by user
	ends     map[Slot][]UserID                 // users by end slot; stale once an end moved
	departed appendmap.Map[UserID, econ.Money] // charged users' payments
	revenue  econ.Money                        // sum of departed

	implemented   bool
	implementedAt Slot
	servicedCount int // |CSj|, departed members included

	scratch []userBid     // per-slot bidder buffer, reused across AdvanceSlot
	fresh   []*onlineUser // per-slot newly serviced users, reused likewise
}

// NewAddOn returns a new online game for one optimization. It panics if
// the optimization is invalid, since that is a configuration error.
func NewAddOn(opt Optimization) *AddOn {
	if err := opt.Validate(); err != nil {
		panic(err)
	}
	return &AddOn{
		opt:   opt,
		users: make(map[UserID]*onlineUser),
		ends:  make(map[Slot][]UserID),
	}
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
	_, gone := a.departed.Get(bid.User)
	if err := checkPresent(bid.User, gone); err != nil {
		return err
	}
	u := a.users[bid.User]
	if u == nil {
		u = &onlineUser{valueCurve: newValueCurve(bid), id: bid.User}
		a.users[bid.User] = u
		a.pending = append(a.pending, u)
		a.ends[u.end] = append(a.ends[u.end], u.id)
		return nil
	}
	prevEnd := u.end
	if err := u.revise(bid, a.now); err != nil {
		return err
	}
	if u.end != prevEnd {
		a.ends[u.end] = append(a.ends[u.end], u.id)
	}
	return nil
}

// AdvanceSlot processes the next time slot: it recomputes the serviced set
// with the Shapley Value Mechanism over residual bids (forcing all
// previously serviced users in), grants access to newly serviced users,
// and charges users whose interval ends at this slot.
func (a *AddOn) AdvanceSlot() SlotReport {
	report := SlotReport{Departures: make(map[UserID]econ.Money)}
	a.serve(&report)
	report.Slot = a.now
	if len(a.active) > 0 {
		report.Active = a.appendActive(make([]Grant, 0, len(a.active)))
	}
	a.charge(report.Departures)
	return report
}

// serve processes the next slot up to its grants: it runs the Shapley
// Value Mechanism over the pending users' residual bids, with CSj forced
// in, and appends the implementation and the new grants, in user order,
// to r.
func (a *AddOn) serve(r *SlotReport) {
	a.now++
	t := a.now
	// Collect residual bids of pending users into the reusable scratch
	// buffer, dropping the users serviced or charged since the last pass
	// (a present user's end is never before the slot being processed).
	// Previously serviced users are the forced set and only contribute
	// their count.
	bidders := a.scratch[:0]
	pending := a.pending[:0]
	for _, u := range a.pending {
		if u.serviced || u.end < t {
			continue
		}
		pending = append(pending, u)
		if t < u.start {
			continue
		}
		if res := u.residual(t); res > 0 {
			bidders = append(bidders, userBid{user: u.id, bid: res})
		}
	}
	clear(a.pending[len(pending):])
	a.pending = pending
	sortBidsDesc(bidders)
	k := servicedPrefix(a.opt.Cost, bidders, a.servicedCount)
	a.scratch = bidders

	if k+a.servicedCount > 0 && !a.implemented {
		a.implemented = true
		a.implementedAt = t
		r.Implemented = append(r.Implemented, a.opt.ID)
	}
	if k == 0 {
		return
	}
	fresh := a.fresh[:0]
	for _, ub := range bidders[:k] {
		u := a.users[ub.user]
		u.serviced = true
		fresh = append(fresh, u)
	}
	a.servicedCount += k
	slices.SortFunc(fresh, byUser)
	for _, u := range fresh {
		r.NewGrants = append(r.NewGrants, Grant{User: u.id, Opt: a.opt.ID})
	}
	a.active = mergeSorted(a.active, fresh, byUser)
	clear(fresh)
	a.fresh = fresh[:0]
}

// appendActive appends the grants of the serviced users present in the
// slot just served, in user order.
func (a *AddOn) appendActive(dst []Grant) []Grant {
	for _, u := range a.active {
		dst = append(dst, Grant{User: u.id, Opt: a.opt.ID})
	}
	return dst
}

// charge charges the users whose interval ends at the slot just served,
// adding their payments to departures, and drops them: serviced users pay
// the current (lowest so far) share, never-serviced users pay nothing.
func (a *AddOn) charge(departures map[UserID]econ.Money) {
	t := a.now
	share := a.currentShare()
	servicedLeft := false
	for _, id := range a.ends[t] {
		u := a.users[id]
		if u.end != t {
			continue // filed again under a later end
		}
		var payment econ.Money
		if u.serviced {
			payment = share
			servicedLeft = true
		}
		departures[id] += payment
		a.depart(u, payment)
	}
	delete(a.ends, t)
	if servicedLeft {
		a.active = slices.DeleteFunc(a.active, func(u *onlineUser) bool { return u.end == t })
	}
}

// depart records a charged user's payment and forgets everything else
// about them. A pending list may still point at them until its next pass,
// so their curve is released here.
func (a *AddOn) depart(u *onlineUser, payment econ.Money) {
	a.departed.Put(u.id, payment)
	a.revenue += payment
	delete(a.users, u.id)
	u.release()
}

// Close settles every user who has not yet paid, charging serviced users
// the current cost-share. Call it at the end of the pricing period T, after
// the final AdvanceSlot. It returns the payments charged by this call, and
// leaves the game holding only payments.
func (a *AddOn) Close() map[UserID]econ.Money {
	share := a.currentShare()
	settled := make(map[UserID]econ.Money, len(a.users))
	for id, u := range a.users {
		var payment econ.Money
		if u.serviced {
			payment = share
		}
		settled[id] = payment
		a.depart(u, payment)
	}
	// Fresh containers: Go maps never shrink, so clearing them would
	// keep the period's buckets.
	a.users = make(map[UserID]*onlineUser)
	a.ends = make(map[Slot][]UserID)
	a.pending, a.active = nil, nil
	a.departed.Clip()
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
	return a.departed.Get(u)
}

// TotalRevenue returns the sum of all payments charged so far.
func (a *AddOn) TotalRevenue() econ.Money { return a.revenue }

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
// The games run in ascending optimization order and each reports its
// grants in user order, so the merged lists come out sorted as they are
// appended, and the merged Active list is allocated once, at its size.
func (g *AdditiveGame) AdvanceSlot() SlotReport {
	g.now++
	merged := SlotReport{Slot: g.now, Departures: make(map[UserID]econ.Money)}
	active := 0
	for _, id := range g.order {
		a := g.games[id]
		a.serve(&merged)
		active += len(a.active)
	}
	if active > 0 {
		merged.Active = make([]Grant, 0, active)
	}
	for _, id := range g.order {
		a := g.games[id]
		merged.Active = a.appendActive(merged.Active)
		a.charge(merged.Departures)
	}
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

// Payment returns the user's payments summed across optimizations, and
// whether any optimization has charged her yet.
func (g *AdditiveGame) Payment(u UserID) (econ.Money, bool) {
	var total econ.Money
	charged := false
	for _, id := range g.order {
		if p, ok := g.games[id].Payment(u); ok {
			total += p
			charged = true
		}
	}
	return total, charged
}

// Payments returns a new map of every charged user's payments, summed
// across optimizations.
func (g *AdditiveGame) Payments() map[UserID]econ.Money {
	out := make(map[UserID]econ.Money)
	for _, id := range g.order {
		for u, p := range g.games[id].departed.All() {
			out[u] += p
		}
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
