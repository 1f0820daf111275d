// Package core implements the cost-sharing mechanisms of Upadhyaya,
// Balazinska and Suciu, "How to Price Shared Optimizations in the Cloud"
// (VLDB 2012): the Shapley Value Mechanism and the four mechanisms built
// on it — AddOff and AddOn for additive optimizations (offline and online
// games) and SubstOff and SubstOn for substitutive optimizations.
//
// All mechanisms are deterministic. Monetary amounts are econ.Money
// (integer micro-dollars) and cost-shares use ceiling division, so the
// cost-recovery guarantee Σ payments ≥ cost holds exactly, with no
// floating-point slack.
//
// Offline mechanisms (AddOff, SubstOff) are plain functions from bids to
// an Outcome. Online mechanisms (AddOn, SubstOn) are state machines: the
// caller submits bids between slots and calls AdvanceSlot to process the
// next time slot, receiving a SlotReport of new grants and departures'
// payments.
//
// # Performance architecture
//
// Every mechanism bottoms out in the Shapley Value Mechanism, so its inner
// loop is engineered to be allocation-free:
//
//   - Sorted-prefix Shapley invariant: the serviced set is always the
//     largest k such that the k highest bidders (after forced users) each
//     bid at least cost.DivCeil(k+forced). One descending sort plus an
//     O(n) prefix scan (servicedPrefix) replaces the paper's
//     drop-until-stable iteration; the two are provably equivalent because
//     survival under iterated dropping is monotone in the bid.
//   - Suffix-sum residuals: online users store their declared value
//     function as a dense valueCurve with a cached suffix-sum array, so
//     the residual Σ_{τ≥t} b(τ) needed every slot is an O(1) lookup.
//   - Event indexing: AddOn and SubstOn hold only the users still
//     present, in a pending list, an ordered active list and an end-slot
//     index, so a slot's work is proportional to the users present, not
//     to everyone seen so far; a departed user leaves only their payment.
//     onlineref_test.go keeps the scanning versions as a differential
//     oracle.
//   - Scratch reuse: AddOn and SubstOn keep per-game scratch buffers and
//     rebuild nothing per slot; a warm AdvanceSlot allocates only its
//     SlotReport (see the allocation-regression tests in alloc_test.go).
//
// The experiments harness layers deterministic parallel trials on top:
// per-trial RNG seeds are drawn up front from the master seed and trial
// results are reduced in trial order, so a parallel run is bit-identical
// to a sequential one.
package core

import (
	"cmp"
	"fmt"
	"slices"

	"sharedopt/internal/econ"
)

// UserID identifies a user (player) in a pricing game.
type UserID int

// OptID identifies an optimization the cloud can implement (an index, a
// materialized view, a replica, ...).
type OptID int

// Slot is a discrete time slot of the online game, numbered from 1.
type Slot int

// Optimization describes one binary optimization the cloud may implement.
type Optimization struct {
	// ID must be unique within a game.
	ID OptID
	// Cost is the fixed cost Cj of implementing and maintaining the
	// optimization for the whole period T. It must be positive.
	Cost econ.Money
}

// Validate reports an error if the optimization is malformed.
func (o Optimization) Validate() error {
	if o.Cost <= 0 {
		return fmt.Errorf("core: optimization %d: cost must be positive, got %v", o.ID, o.Cost)
	}
	return nil
}

// Grant is a pair (user, optimization) recording that the user has been
// granted access to the optimization.
type Grant struct {
	User UserID
	Opt  OptID
}

// Outcome is the alternative chosen by an offline mechanism: the set of
// implemented optimizations, the users granted access to each, and every
// user's cost-share payments.
type Outcome struct {
	// Implemented lists implemented optimizations in ascending ID order.
	Implemented []OptID
	// Serviced maps each implemented optimization to the users granted
	// access, in ascending user order.
	Serviced map[OptID][]UserID
	// Payments maps user → optimization → cost-share. Only non-zero
	// payments are recorded.
	Payments map[UserID]map[OptID]econ.Money
}

// NewOutcome returns an empty outcome.
func NewOutcome() *Outcome {
	return &Outcome{
		Serviced: make(map[OptID][]UserID),
		Payments: make(map[UserID]map[OptID]econ.Money),
	}
}

// addGrants records that the optimization was implemented with the given
// serviced users, each paying share. It takes ownership of users: callers
// pass freshly allocated slices, which are stored directly when already
// sorted. The optimization is inserted into Implemented in ID order, so no
// per-call re-sort of the whole slice is needed.
func (o *Outcome) addGrants(opt OptID, users []UserID, share econ.Money) {
	at, _ := slices.BinarySearch(o.Implemented, opt)
	o.Implemented = slices.Insert(o.Implemented, at, opt)
	sorted := users
	if !slices.IsSorted(sorted) {
		sorted = append([]UserID(nil), users...)
		sortUsers(sorted)
	}
	o.Serviced[opt] = sorted
	for _, u := range sorted {
		o.setPayment(u, opt, share)
	}
}

func (o *Outcome) setPayment(u UserID, opt OptID, p econ.Money) {
	if p == 0 {
		return
	}
	m := o.Payments[u]
	if m == nil {
		m = make(map[OptID]econ.Money)
		o.Payments[u] = m
	}
	m[opt] = p
}

// IsImplemented reports whether the optimization was implemented.
func (o *Outcome) IsImplemented(opt OptID) bool {
	_, ok := o.Serviced[opt]
	return ok
}

// IsServiced reports whether the user was granted access to the
// optimization.
func (o *Outcome) IsServiced(u UserID, opt OptID) bool {
	for _, s := range o.Serviced[opt] {
		if s == u {
			return true
		}
	}
	return false
}

// Payment returns the user's cost-share for one optimization (0 if not
// serviced).
func (o *Outcome) Payment(u UserID, opt OptID) econ.Money {
	return o.Payments[u][opt]
}

// TotalPayment returns the user's total payment Pi across optimizations.
func (o *Outcome) TotalPayment(u UserID) econ.Money {
	var total econ.Money
	for _, p := range o.Payments[u] {
		total += p
	}
	return total
}

// Revenue returns the total payments collected for one optimization.
func (o *Outcome) Revenue(opt OptID) econ.Money {
	var total econ.Money
	for _, m := range o.Payments {
		total += m[opt]
	}
	return total
}

// GrantedOpt returns the optimization granted to the user and true, or 0
// and false if the user was granted nothing. It is meaningful for
// substitutive outcomes, where each user is granted at most one
// optimization.
func (o *Outcome) GrantedOpt(u UserID) (OptID, bool) {
	for opt, users := range o.Serviced {
		for _, s := range users {
			if s == u {
				return opt, true
			}
		}
	}
	return 0, false
}

// SlotReport describes what happened in one time slot of an online game.
type SlotReport struct {
	// Slot is the slot that was just processed.
	Slot Slot
	// Implemented lists optimizations first implemented in this slot,
	// in ascending ID order.
	Implemented []OptID
	// NewGrants lists grants added in this slot, sorted by (opt, user).
	NewGrants []Grant
	// Active lists the grants of users actively serviced in this slot
	// (serviced and within their requested interval), sorted by
	// (opt, user). Value accrues to exactly these pairs.
	Active []Grant
	// Departures maps each user whose bid interval ended at this slot
	// to the payment she owes on leaving (possibly 0 if never
	// serviced). Payments are final: they never change afterwards.
	Departures map[UserID]econ.Money
}

// The sort helpers use the generic slices package rather than sort.Slice:
// the generic form does not box a comparison closure, so sorting stays
// allocation-free on the mechanisms' hot paths.

func sortGrants(gs []Grant) {
	slices.SortFunc(gs, func(a, b Grant) int {
		if c := cmp.Compare(a.Opt, b.Opt); c != 0 {
			return c
		}
		return cmp.Compare(a.User, b.User)
	})
}

func sortUsers(us []UserID) { slices.Sort(us) }

func sortOpts(os []OptID) { slices.Sort(os) }

// mergeSorted merges add, sorted by compare, into list, sorted the same
// way, in place from the back, and returns the grown list. An online
// mechanism merges each slot's new grants into its ordered active list
// with it instead of re-sorting the list.
func mergeSorted[E any](list, add []E, compare func(a, b E) int) []E {
	i, j := len(list)-1, len(add)-1
	list = slices.Grow(list, len(add))[:len(list)+len(add)]
	for k := len(list) - 1; j >= 0; k-- {
		if i >= 0 && compare(list[i], add[j]) > 0 {
			list[k] = list[i]
			i--
		} else {
			list[k] = add[j]
			j--
		}
	}
	return list
}
