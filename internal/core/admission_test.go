package core_test

import (
	"fmt"
	"strings"
	"testing"

	"sharedopt/internal/core"
	"sharedopt/internal/core/admissiontest"
	"sharedopt/internal/econ"
)

// verdict renders an admission outcome for comparison.
func verdict(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}

// admissionRules names each rule by a fragment of its error text; a
// differential sweep must exercise every one.
var admissionRules = []string{
	"bid start slot", "before start", "values for", "negative value",
	"unknown optimization", "retroactive", "lowers value", "shrinks end",
	"withdraws value", "after departure", "changes substitute set",
}

// TestValidatorMatchesMechanisms is the differential property behind
// core.Validator: over seeded op scripts for both game kinds, its verdict
// on every bid — nil or the exact error text — equals that of the
// mechanism it stands in for, AdditiveGame or SubstOn, and the scripts
// between them trip every admission rule. Some bids arrive after the end
// slot a user first declared but before the end a revision extended it
// to, where a curve released at its old end would be judged wrongly.
func TestValidatorMatchesMechanisms(t *testing.T) {
	for _, substitutive := range []bool{false, true} {
		hit := map[string]int{}
		revisions, outlived := 0, 0
		for seed := uint64(1); seed <= 40; seed++ {
			v := core.NewValidator(admissiontest.Catalog())
			add := core.NewAdditiveGame(admissiontest.Catalog())
			sub := core.NewSubstOn(admissiontest.Catalog())
			seen := map[string]bool{}
			firstEnd, end := map[string]core.Slot{}, map[string]core.Slot{}
			for i, op := range admissiontest.Script(seed, substitutive, 60) {
				if op.Advance {
					v.Advance()
					add.AdvanceSlot()
					sub.AdvanceSlot()
					continue
				}
				var want error
				if substitutive {
					want = sub.Submit(op.SubstBid())
				} else {
					want = add.Submit(op.Opt, op.Bid)
				}
				got := admissiontest.Admit(v, op, substitutive)
				if verdict(got) != verdict(want) {
					t.Fatalf("substitutive=%v seed=%d op %d (%+v): validator says %q, mechanism %q",
						substitutive, seed, i, op, verdict(got), verdict(want))
				}
				for _, rule := range admissionRules {
					if strings.Contains(verdict(got), rule) {
						hit[rule]++
					}
				}
				k := fmt.Sprint(op.Bid.User)
				if !substitutive {
					k += fmt.Sprint("/", op.Opt)
				}
				if seen[k] && firstEnd[k] <= v.Now() && v.Now() < end[k] {
					outlived++
				}
				if got == nil && seen[k] {
					revisions++
				}
				if got == nil && !seen[k] {
					firstEnd[k] = op.Bid.End
				}
				if got == nil {
					end[k] = max(end[k], op.Bid.End)
				}
				seen[k] = seen[k] || got == nil
			}
		}
		rules := admissionRules
		if !substitutive {
			rules = rules[:len(rules)-1]
		}
		for _, rule := range rules {
			if hit[rule] == 0 {
				t.Errorf("substitutive=%v: no script tripped the %q rule", substitutive, rule)
			}
		}
		if revisions == 0 {
			t.Errorf("substitutive=%v: no script made an admitted revision", substitutive)
		}
		if outlived == 0 {
			t.Errorf("substitutive=%v: no bid arrived between a user's first end and her extended end", substitutive)
		}
	}
}

// TestEarlierStartRevisionDivergence pins the one admission outcome the
// two online mechanisms treat differently. A revision may move a future
// start earlier: first bid [3,3], revised to [1,3] before slot 1. AddOn
// services the user from the new start; SubstOn keeps gating
// participation on the first bid's start and grants slot 3 only.
func TestEarlierStartRevisionDivergence(t *testing.T) {
	d := econ.FromDollars
	first := core.OnlineBid{User: 1, Start: 3, End: 3, Values: []econ.Money{d(5)}}
	revised := core.OnlineBid{User: 1, Start: 1, End: 3, Values: []econ.Money{d(5), d(5), d(5)}}
	opts := []core.Optimization{{ID: 1, Cost: d(1)}}
	add := core.NewAdditiveGame(opts)
	sub := core.NewSubstOn(opts)
	substBid := func(b core.OnlineBid) core.OnlineSubstBid {
		return core.OnlineSubstBid{User: b.User, Opts: []core.OptID{1}, Start: b.Start, End: b.End, Values: b.Values}
	}
	for _, err := range []error{
		add.Submit(1, first), add.Submit(1, revised),
		sub.Submit(substBid(first)), sub.Submit(substBid(revised)),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	var addSlots, subSlots []core.Slot
	for range 3 {
		if r := add.AdvanceSlot(); len(r.Active) > 0 {
			addSlots = append(addSlots, r.Slot)
		}
		if r := sub.AdvanceSlot(); len(r.Active) > 0 {
			subSlots = append(subSlots, r.Slot)
		}
	}
	if fmt.Sprint(addSlots) != "[1 2 3]" || fmt.Sprint(subSlots) != "[3]" {
		t.Fatalf("AddOn serviced slots %v, SubstOn %v; want [1 2 3] and [3]", addSlots, subSlots)
	}
}
