package core

import (
	"testing"

	"sharedopt/internal/econ"
)

// releaseBids are the bids every curve-release test declares: user 1
// leaves at slot 2, user 2 at slot 4, and user 3 bids to slot 2 but
// extends to slot 4 after slot 1 (revise).
func releaseBids() (u1, u2, u3 OnlineBid, revise OnlineBid) {
	d := econ.FromDollars
	u1 = OnlineBid{User: 1, Start: 1, End: 2, Values: []econ.Money{d(4), d(4)}}
	u2 = OnlineBid{User: 2, Start: 1, End: 4, Values: []econ.Money{d(1), d(1), d(1), d(1)}}
	u3 = OnlineBid{User: 3, Start: 1, End: 2, Values: []econ.Money{d(1), d(1)}}
	revise = OnlineBid{User: 3, Start: 2, End: 4, Values: []econ.Money{d(1), d(2), d(2)}}
	return u1, u2, u3, revise
}

// TestAddOnReleasesDepartedCurves: once a user has been charged at her
// end slot AddOn holds no values for her, while her payment and the
// departure rule still stand; a user whose revision extended her end
// keeps her curve past the old end.
func TestAddOnReleasesDepartedCurves(t *testing.T) {
	u1, u2, u3, revise := releaseBids()
	a := NewAddOn(Optimization{ID: 1, Cost: econ.FromDollars(6)})
	for _, b := range []OnlineBid{u1, u2, u3} {
		mustSubmit(t, a.Submit(b))
	}
	a.AdvanceSlot()
	mustSubmit(t, a.Submit(revise))
	r := a.AdvanceSlot()
	if _, ok := r.Departures[1]; !ok {
		t.Fatalf("user 1 not charged at slot 2: %+v", r.Departures)
	}
	if c := a.users[1].valueCurve; c.values != nil || c.suffix != nil {
		t.Fatalf("departed user 1 still holds values %v, suffix %v", c.values, c.suffix)
	}
	for _, u := range []UserID{2, 3} {
		if a.users[u].values == nil {
			t.Fatalf("user %d released before her end slot", u)
		}
	}
	pay1, _ := a.Payment(1)
	if err := a.Submit(OnlineBid{User: 1, Start: 3, End: 3, Values: []econ.Money{econ.FromDollars(9)}}); err == nil {
		t.Fatal("bid after departure admitted once the curve was released")
	}
	a.AdvanceSlot()
	a.AdvanceSlot()
	for _, u := range []UserID{1, 2, 3} {
		if c := a.users[u].valueCurve; c.values != nil || c.suffix != nil {
			t.Fatalf("user %d holds values after her end slot", u)
		}
	}
	if got, _ := a.Payment(1); got != pay1 {
		t.Fatalf("user 1's payment moved from %v to %v", pay1, got)
	}
}

// TestSubstOnReleasesDepartedCurves is the SubstOn counterpart.
func TestSubstOnReleasesDepartedCurves(t *testing.T) {
	u1, u2, u3, revise := releaseBids()
	s := NewSubstOn([]Optimization{{ID: 1, Cost: econ.FromDollars(6)}, {ID: 2, Cost: econ.FromDollars(9)}})
	subst := func(b OnlineBid) OnlineSubstBid {
		return OnlineSubstBid{User: b.User, Opts: []OptID{1, 2}, Start: b.Start, End: b.End, Values: b.Values}
	}
	for _, b := range []OnlineBid{u1, u2, u3} {
		mustSubmit(t, s.Submit(subst(b)))
	}
	s.AdvanceSlot()
	mustSubmit(t, s.Submit(subst(revise)))
	if r := s.AdvanceSlot(); len(r.Departures) != 1 {
		t.Fatalf("slot 2 departures %+v, want user 1 alone", r.Departures)
	}
	if c := s.users[1].curve; c.values != nil || c.suffix != nil {
		t.Fatalf("departed user 1 still holds values %v, suffix %v", c.values, c.suffix)
	}
	for _, u := range []UserID{2, 3} {
		if s.users[u].curve.values == nil {
			t.Fatalf("user %d released before her end slot", u)
		}
	}
	s.AdvanceSlot()
	s.AdvanceSlot()
	for _, u := range []UserID{1, 2, 3} {
		if c := s.users[u].curve; c.values != nil || c.suffix != nil {
			t.Fatalf("user %d holds values after her end slot", u)
		}
	}
}

// TestValidatorReleasesDepartedCurves: Advance drops the values of the
// curves ending at the processed slot, additive and substitutive, and
// keeps judging their users as departed; an end-extending revision
// re-files the curve, so it outlives its old end. Past end-slot buckets
// are emptied as the clock passes them.
func TestValidatorReleasesDepartedCurves(t *testing.T) {
	u1, u2, u3, revise := releaseBids()
	v := NewValidator([]Optimization{{ID: 1, Cost: econ.FromDollars(6)}, {ID: 2, Cost: econ.FromDollars(9)}})
	subst := func(b OnlineBid) OnlineSubstBid {
		b.User += 10
		return OnlineSubstBid{User: b.User, Opts: []OptID{1, 2}, Start: b.Start, End: b.End, Values: b.Values}
	}
	for _, b := range []OnlineBid{u1, u2, u3} {
		mustSubmit(t, v.AdmitAdditive(1, b))
		mustSubmit(t, v.AdmitSubstitutive(subst(b)))
	}
	v.Advance()
	mustSubmit(t, v.AdmitAdditive(1, revise))
	mustSubmit(t, v.AdmitSubstitutive(subst(revise)))
	v.Advance()
	curve := func(u UserID) []econ.Money {
		if u > 10 {
			return v.subst[u].values
		}
		return v.additive[1][u].values
	}
	for _, u := range []UserID{1, 11} {
		if curve(u) != nil {
			t.Fatalf("departed user %d still holds values %v", u, curve(u))
		}
	}
	for _, u := range []UserID{2, 3, 12, 13} {
		if curve(u) == nil {
			t.Fatalf("user %d released before her end slot", u)
		}
	}
	late := OnlineBid{User: 1, Start: 3, End: 3, Values: []econ.Money{econ.FromDollars(9)}}
	if err := v.AdmitAdditive(1, late); err == nil {
		t.Fatal("additive bid after departure admitted once the curve was released")
	}
	if err := v.AdmitSubstitutive(subst(late)); err == nil {
		t.Fatal("substitutive bid after departure admitted once the curve was released")
	}
	// User 3 lives on past her old end: a raise at slot 3 is judged
	// against her extended curve.
	mustSubmit(t, v.AdmitAdditive(1, OnlineBid{User: 3, Start: 3, End: 4, Values: []econ.Money{econ.FromDollars(3), econ.FromDollars(2)}}))
	v.Advance()
	v.Advance()
	for _, u := range []UserID{1, 2, 3, 11, 12, 13} {
		if curve(u) != nil {
			t.Fatalf("user %d holds values after her end slot", u)
		}
	}
	if len(v.ends) != 0 {
		t.Fatalf("end-slot index holds %d buckets after every curve ended", len(v.ends))
	}
}
