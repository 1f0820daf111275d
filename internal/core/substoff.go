package core

import (
	"cmp"
	"fmt"
	"slices"

	"sharedopt/internal/econ"
)

// SubstBid is a user's bid in a substitutive game: she names the set Ji of
// optimizations that are perfect substitutes for her and the single value
// vi she obtains if granted access to at least one of them (paper,
// Section 6). Access to additional optimizations in Ji adds nothing.
type SubstBid struct {
	User  UserID
	Opts  []OptID
	Value econ.Money
}

// Validate reports an error if the bid is structurally malformed.
func (b SubstBid) Validate() error {
	if len(b.Opts) == 0 {
		return fmt.Errorf("core: user %d: empty substitute set", b.User)
	}
	seen := make(map[OptID]bool, len(b.Opts))
	for _, j := range b.Opts {
		if seen[j] {
			return fmt.Errorf("core: user %d: duplicate optimization %d in substitute set", b.User, j)
		}
		seen[j] = true
	}
	if b.Value < 0 {
		return fmt.Errorf("core: user %d: negative value %v", b.User, b.Value)
	}
	return nil
}

// SubstOff runs the SubstOff Mechanism (paper, Mechanism 3): the offline
// cost-sharing mechanism for substitutive optimizations. It works in
// phases: each phase runs the Shapley Value Mechanism independently for
// every remaining optimization over the remaining users who want it,
// implements the feasible optimization with the smallest cost-share,
// grants it to its serviced users, and removes both from further phases.
//
// Cost-share ties between optimizations are broken deterministically in
// favour of the lowest optimization ID (the paper breaks them randomly;
// a fixed rule keeps runs reproducible and is equally truthful).
//
// Each user submits at most one bid. SubstOff is truthful when users do
// not know the other users' bids, and cost-recovering (paper, Section 6.1).
func SubstOff(opts []Optimization, bids []SubstBid) (*Outcome, error) {
	optByID, err := validateOpts(opts)
	if err != nil {
		return nil, err
	}
	bidders := make([]substBidder, 0, len(bids))
	seen := make(map[UserID]bool, len(bids))
	for _, b := range bids {
		if err := b.Validate(); err != nil {
			return nil, err
		}
		if seen[b.User] {
			return nil, fmt.Errorf("core: duplicate bid by user %d", b.User)
		}
		seen[b.User] = true
		for _, j := range b.Opts {
			if _, ok := optByID[j]; !ok {
				return nil, fmt.Errorf("core: user %d bid for unknown optimization %d", b.User, j)
			}
		}
		bidders = append(bidders, substBidder{user: b.User, bid: b.Value, opts: b.Opts})
	}
	phases := substPhases(opts, bidders, nil, nil)
	outcome := NewOutcome()
	for _, pos := range phases.order {
		outcome.addGrants(opts[pos].ID, phases.serviced[pos], phases.share[pos])
	}
	return outcome, nil
}

func validateOpts(opts []Optimization) (map[OptID]Optimization, error) {
	byID := make(map[OptID]Optimization, len(opts))
	for _, o := range opts {
		if err := o.Validate(); err != nil {
			return nil, err
		}
		if _, dup := byID[o.ID]; dup {
			return nil, fmt.Errorf("core: duplicate optimization %d", o.ID)
		}
		byID[o.ID] = o
	}
	return byID, nil
}

// substBidder is one active (not yet granted) user in a phase run: her
// current bid — identical for every optimization in her substitute set —
// and the set itself. The opts slice is borrowed from the caller and never
// mutated.
type substBidder struct {
	user UserID
	bid  econ.Money
	opts []OptID
}

func (b substBidder) wants(j OptID) bool {
	for _, o := range b.opts {
		if o == j {
			return true
		}
	}
	return false
}

// availOpt is one not-yet-implemented optimization in the phase loop,
// carrying its position in the caller's opts slice so results can be
// recorded in position-indexed slices instead of maps.
type availOpt struct {
	opt Optimization
	pos int32
}

// substScratch holds the phase loop's reusable buffers so an online game
// can run substPhases every slot without rebuilding them. The serviced,
// share, and order buffers back the returned phasesResult, so a result
// is valid only until the next substPhases call with the same scratch.
type substScratch struct {
	active    []substBidder
	available []availOpt
	optBids   []userBid
	serviced  [][]UserID
	share     []econ.Money
	order     []int32
}

// phasesResult is the output of the SubstOff phase loop. The serviced
// and share slices are indexed by position in the opts slice passed to
// substPhases (not by OptID), which keeps a warm online slot free of
// per-slot map allocation.
type phasesResult struct {
	// order lists implemented optimizations, as positions into opts, in
	// implementation order.
	order []int32
	// serviced[pos] lists the users opts[pos] serviced in this run,
	// sorted, when pos appears in order. Forced users are not listed.
	serviced [][]UserID
	// share[pos] is opts[pos]'s final per-user cost-share this run, or 0
	// when pos was not implemented.
	share []econ.Money
	// newGrants lists grants added this run (forced users excluded),
	// sorted by (opt, user). It is freshly allocated per run (callers
	// retain it in SlotReports), or nil when no grants were added.
	newGrants []Grant
}

// substPhases is the phase loop shared by SubstOff and SubstOn. bidders
// are the active users with their residual bids; forced[pos] counts the
// users that must remain serviced by opts[pos] (the "b'ij ← ∞" rows of
// Mechanism 4), and is nil when there are none; forced users must not
// appear in bidders. Only the size of each forced set matters: it
// lowers the share every newcomer is asked for. scratch may be nil for
// one-shot callers. Inputs are assumed validated.
//
// The active set is sorted once in descending bid order; each phase then
// evaluates every remaining optimization with a zero-allocation
// sorted-prefix scan (see servicedPrefix) over the subset of active users
// that want it, and serviced users are removed with an order-preserving
// merge so no re-sort is ever needed.
func substPhases(opts []Optimization, bidders []substBidder, forced []int, scratch *substScratch) phasesResult {
	if scratch == nil {
		scratch = &substScratch{}
	}
	// Size the position-indexed result buffers, reusing backing arrays.
	if cap(scratch.share) < len(opts) {
		scratch.share = make([]econ.Money, len(opts))
	}
	if cap(scratch.serviced) < len(opts) {
		serviced := make([][]UserID, len(opts))
		copy(serviced, scratch.serviced)
		scratch.serviced = serviced
	}
	scratch.share = scratch.share[:len(opts)]
	clear(scratch.share)
	scratch.serviced = scratch.serviced[:len(opts)]
	scratch.order = scratch.order[:0]
	res := phasesResult{
		serviced: scratch.serviced,
		share:    scratch.share,
	}
	// Sort by ID so that the arg-min scan breaks ties toward lower IDs.
	available := scratch.available[:0]
	for pos, opt := range opts {
		available = append(available, availOpt{opt: opt, pos: int32(pos)})
	}
	slices.SortFunc(available, func(a, b availOpt) int { return cmp.Compare(a.opt.ID, b.opt.ID) })
	active := append(scratch.active[:0], bidders...)
	slices.SortFunc(active, func(a, b substBidder) int {
		return compareBidDesc(a.bid, b.bid, a.user, b.user)
	})
	for len(available) > 0 {
		bestIdx, bestK := -1, 0
		var bestShare econ.Money
		for idx, av := range available {
			f := 0
			if forced != nil {
				f = forced[av.pos]
			}
			optBids := collectOptBids(scratch, active, av.opt.ID)
			k := servicedPrefix(av.opt.Cost, optBids, f)
			if k+f == 0 {
				continue
			}
			share := av.opt.Cost.DivCeil(k + f)
			if bestIdx == -1 || share < bestShare {
				bestIdx, bestShare, bestK = idx, share, k
			}
		}
		if bestIdx == -1 {
			break
		}
		chosen := available[bestIdx]
		available = append(available[:bestIdx], available[bestIdx+1:]...)
		optBids := collectOptBids(scratch, active, chosen.opt.ID)
		servicedUsers := scratch.serviced[chosen.pos][:0]
		for _, ub := range optBids[:bestK] {
			servicedUsers = append(servicedUsers, ub.user)
			res.newGrants = append(res.newGrants, Grant{User: ub.user, Opt: chosen.opt.ID})
		}
		sortUsers(servicedUsers)
		scratch.order = append(scratch.order, chosen.pos)
		res.serviced[chosen.pos] = servicedUsers
		res.share[chosen.pos] = bestShare
		// Drop the newly serviced bidders from the active set — their
		// bids for every other optimization fall to 0. optBids[:bestK]
		// is an ordered subsequence of active, so a single merge pass
		// removes them while preserving the sort order.
		if bestK > 0 {
			w, r := 0, 0
			for _, b := range active {
				if r < bestK && b.user == optBids[r].user {
					r++
					continue
				}
				active[w] = b
				w++
			}
			active = active[:w]
		}
	}
	sortGrants(res.newGrants)
	res.order = scratch.order
	scratch.available = available[:0]
	scratch.active = active[:0]
	return res
}

// collectOptBids gathers the bids of active users who want optimization j
// into the reusable scratch buffer, preserving the descending sort order.
func collectOptBids(scratch *substScratch, active []substBidder, j OptID) []userBid {
	out := scratch.optBids[:0]
	for _, b := range active {
		if b.wants(j) {
			out = append(out, userBid{user: b.user, bid: b.bid})
		}
	}
	scratch.optBids = out
	return out
}
