package core

import (
	"fmt"

	"sharedopt/internal/econ"
)

// NaiveOnline is the strawman online adaptation of the Shapley Value
// Mechanism the paper dismantles in Example 2: run the offline mechanism
// at each slot over that slot's declared values until it implements; the
// users serviced at that moment split the cost, and the optimization is
// free for everybody afterwards.
//
// It exists as an ablation baseline: it is cost-recovering but NOT
// truthful — a user who hides her early value free-rides on whoever
// triggers implementation. The ablation experiment (experiments.AblationNaive)
// quantifies how much utility the provider loses to that gaming compared
// with AddOn, which closes the loophole with residual bids and cumulative
// serviced sets.
type NaiveOnline struct {
	opt   Optimization
	now   Slot
	users map[UserID]*naiveUser

	implemented   bool
	implementedAt Slot
}

// naiveUser is NaiveOnline's record of one user. Unlike AddOn, the naive
// mechanism keeps every user, departed or not, because it prices from
// their curves' totals.
type naiveUser struct {
	valueCurve
	serviced bool
	paid     bool
	payment  econ.Money
}

// NewNaiveOnline returns a naive online game for one optimization.
// It panics if the optimization is invalid.
func NewNaiveOnline(opt Optimization) *NaiveOnline {
	if err := opt.Validate(); err != nil {
		panic(err)
	}
	return &NaiveOnline{opt: opt, users: make(map[UserID]*naiveUser)}
}

// Now returns the last processed slot (0 if none yet).
func (n *NaiveOnline) Now() Slot { return n.now }

// Implemented reports whether and when the optimization was implemented.
func (n *NaiveOnline) Implemented() (Slot, bool) { return n.implementedAt, n.implemented }

// Submit places a bid; the same validation as AddOn applies except that
// revisions are not supported (the strawman never specified them).
func (n *NaiveOnline) Submit(bid OnlineBid) error {
	if err := bid.Validate(); err != nil {
		return err
	}
	if err := checkStart(bid, n.now); err != nil {
		return err
	}
	if _, dup := n.users[bid.User]; dup {
		return fmt.Errorf("core: user %d: naive mechanism does not support revisions", bid.User)
	}
	n.users[bid.User] = &naiveUser{valueCurve: newValueCurve(bid)}
	return nil
}

// AdvanceSlot processes the next slot. Before implementation it runs the
// offline Shapley mechanism over the current slot's values; once the cost
// has been recovered, every active user is serviced for free.
func (n *NaiveOnline) AdvanceSlot() SlotReport {
	n.now++
	t := n.now
	report := SlotReport{Slot: t, Departures: make(map[UserID]econ.Money)}

	if n.implemented {
		// Free ride: every user in her interval is serviced.
		for id, u := range n.users {
			if t >= u.start && t <= u.end {
				if !u.serviced {
					u.serviced = true
					report.NewGrants = append(report.NewGrants, Grant{User: id, Opt: n.opt.ID})
				}
				report.Active = append(report.Active, Grant{User: id, Opt: n.opt.ID})
			}
		}
	} else {
		// The strawman reruns the offline mechanism over each arrived
		// user's total declared value — it does not discount value
		// already consumed, which is also why hiding value until later
		// is profitable under it.
		bids := make(map[UserID]econ.Money)
		for id, u := range n.users {
			if t >= u.start && t <= u.end {
				if total := u.total(); total > 0 {
					bids[id] = total
				}
			}
		}
		res := shapleyForced(n.opt.Cost, bids, nil)
		if res.Implemented() {
			n.implemented = true
			n.implementedAt = t
			report.Implemented = []OptID{n.opt.ID}
			for _, id := range res.Serviced {
				u := n.users[id]
				u.serviced = true
				u.paid = true
				u.payment = res.Share
				report.NewGrants = append(report.NewGrants, Grant{User: id, Opt: n.opt.ID})
				report.Active = append(report.Active, Grant{User: id, Opt: n.opt.ID})
				// Unlike AddOn, the naive mechanism charges at
				// implementation time, so the "departure" entry is
				// recorded on the slot the money moves.
				report.Departures[id] = res.Share
			}
		}
	}
	sortGrants(report.NewGrants)
	sortGrants(report.Active)

	for id, u := range n.users {
		if u.end == t && !u.paid {
			u.paid = true
			report.Departures[id] = 0
		}
	}
	return report
}

// Payment returns the user's payment and whether she has settled.
func (n *NaiveOnline) Payment(u UserID) (econ.Money, bool) {
	usr := n.users[u]
	if usr == nil || !usr.paid {
		return 0, false
	}
	return usr.payment, true
}

// TotalRevenue returns the payments collected (the cost, if implemented).
func (n *NaiveOnline) TotalRevenue() econ.Money {
	var total econ.Money
	for _, u := range n.users {
		if u.paid {
			total += u.payment
		}
	}
	return total
}

// CostIncurred returns the optimization cost if implemented, else 0.
func (n *NaiveOnline) CostIncurred() econ.Money {
	if n.implemented {
		return n.opt.Cost
	}
	return 0
}
