package core

import (
	"testing"

	"sharedopt/internal/econ"
)

// releaseBids are the bids every departure test declares: user 1 leaves
// at slot 2, user 2 at slot 4, and user 3 bids to slot 2 but extends to
// slot 4 after slot 1 (revise).
func releaseBids() (u1, u2, u3 OnlineBid, revise OnlineBid) {
	d := econ.FromDollars
	u1 = OnlineBid{User: 1, Start: 1, End: 2, Values: []econ.Money{d(4), d(4)}}
	u2 = OnlineBid{User: 2, Start: 1, End: 4, Values: []econ.Money{d(1), d(1), d(1), d(1)}}
	u3 = OnlineBid{User: 3, Start: 1, End: 2, Values: []econ.Money{d(1), d(1)}}
	revise = OnlineBid{User: 3, Start: 2, End: 4, Values: []econ.Money{d(1), d(2), d(2)}}
	return u1, u2, u3, revise
}

// TestAddOnReleasesDepartedCurves: once a user has been charged at their
// end slot AddOn holds nothing of them but their payment, which stands,
// as does the departure rule; a user whose revision extended their end
// stays present past the old end; and Close leaves no present user
// behind.
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
	if _, present := a.users[1]; present {
		t.Fatal("departed user 1 is still present")
	}
	for _, u := range []UserID{2, 3} {
		if a.users[u] == nil || a.users[u].values == nil {
			t.Fatalf("user %d dropped before their end slot", u)
		}
	}
	if len(a.active) != 2 || a.active[0].id != 2 || a.active[1].id != 3 {
		t.Fatalf("active list after slot 2 holds %d users, want users 2 and 3", len(a.active))
	}
	pay1, _ := a.Payment(1)
	if err := a.Submit(OnlineBid{User: 1, Start: 3, End: 3, Values: []econ.Money{econ.FromDollars(9)}}); err == nil {
		t.Fatal("bid after departure admitted once the user was dropped")
	}
	a.AdvanceSlot()
	mustSubmit(t, a.Submit(OnlineBid{User: 4, Start: 5, End: 6, Values: []econ.Money{econ.Cent, econ.Cent}}))
	a.AdvanceSlot()
	if len(a.users) != 1 || a.users[4] == nil || len(a.active) != 0 {
		t.Fatalf("after slot 4 the game holds %d present users and %d active, want user 4 alone pending",
			len(a.users), len(a.active))
	}
	if len(a.ends) != 1 {
		t.Fatalf("end-slot index holds %d buckets, want user 4's alone", len(a.ends))
	}
	if got, _ := a.Payment(1); got != pay1 {
		t.Fatalf("user 1's payment moved from %v to %v", pay1, got)
	}
	a.Close()
	if len(a.users) != 0 || len(a.pending) != 0 || len(a.active) != 0 || len(a.ends) != 0 {
		t.Fatalf("Close left %d users, %d pending, %d active, %d end buckets",
			len(a.users), len(a.pending), len(a.active), len(a.ends))
	}
	if _, paid := a.Payment(4); !paid {
		t.Fatal("Close did not settle user 4")
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
	if _, present := s.users[1]; present {
		t.Fatal("departed user 1 is still present")
	}
	for _, u := range []UserID{2, 3} {
		if s.users[u] == nil || s.users[u].curve.values == nil {
			t.Fatalf("user %d dropped before their end slot", u)
		}
	}
	pay1, _ := s.Payment(1)
	opt1, granted := s.GrantedOpt(1)
	if err := s.Submit(subst(OnlineBid{User: 1, Start: 3, End: 3, Values: []econ.Money{econ.FromDollars(9)}})); err == nil {
		t.Fatal("bid after departure admitted once the user was dropped")
	}
	s.AdvanceSlot()
	s.AdvanceSlot()
	if len(s.users) != 0 || len(s.active) != 0 || len(s.ends) != 0 {
		t.Fatalf("after every end the game holds %d users, %d active, %d end buckets",
			len(s.users), len(s.active), len(s.ends))
	}
	if got, _ := s.Payment(1); got != pay1 {
		t.Fatalf("user 1's payment moved from %v to %v", pay1, got)
	}
	if j, ok := s.GrantedOpt(1); j != opt1 || ok != granted {
		t.Fatalf("user 1's grant moved from %d %v to %d %v", opt1, granted, j, ok)
	}
	mustSubmit(t, s.Submit(subst(OnlineBid{User: 4, Start: 6, End: 6, Values: []econ.Money{econ.Cent}})))
	s.Close()
	if len(s.users) != 0 || len(s.pending) != 0 || len(s.ends) != 0 {
		t.Fatalf("Close left %d users, %d pending, %d end buckets", len(s.users), len(s.pending), len(s.ends))
	}
}

// TestValidatorReleasesDepartedCurves: Advance deletes the curves ending at
// the processed slot, additive and substitutive, and keeps judging their
// users as departed; an end-extending revision re-files the curve, so it
// outlives its old end. Past end-slot buckets are emptied as the clock
// passes them.
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
	present := func(u UserID) bool {
		if u > 10 {
			return v.subst[u] != nil
		}
		return v.additive[1][u] != nil
	}
	for _, u := range []UserID{1, 11} {
		if present(u) {
			t.Fatalf("departed user %d still holds a curve", u)
		}
	}
	for _, u := range []UserID{2, 3, 12, 13} {
		if !present(u) {
			t.Fatalf("user %d dropped before their end slot", u)
		}
	}
	late := OnlineBid{User: 1, Start: 3, End: 3, Values: []econ.Money{econ.FromDollars(9)}}
	if err := v.AdmitAdditive(1, late); err == nil {
		t.Fatal("additive bid after departure admitted once the curve was dropped")
	}
	if err := v.AdmitSubstitutive(subst(late)); err == nil {
		t.Fatal("substitutive bid after departure admitted once the curve was dropped")
	}
	// Departure is per curve: user 1 may still bid for optimization 2.
	mustSubmit(t, v.AdmitAdditive(2, late))
	// User 3 lives on past their old end: a raise at slot 3 is judged
	// against their extended curve.
	mustSubmit(t, v.AdmitAdditive(1, OnlineBid{User: 3, Start: 3, End: 4, Values: []econ.Money{econ.FromDollars(3), econ.FromDollars(2)}}))
	v.Advance()
	v.Advance()
	for _, u := range []UserID{1, 2, 3, 11, 12, 13} {
		if present(u) {
			t.Fatalf("user %d holds a curve after their end slot", u)
		}
	}
	if len(v.ends) != 0 {
		t.Fatalf("end-slot index holds %d buckets after every curve ended", len(v.ends))
	}
	if len(v.additive[2]) != 0 || len(v.departed) != 7 {
		t.Fatalf("%d optimization-2 curves present and %d departed marks, want 0 and 7",
			len(v.additive[2]), len(v.departed))
	}
}
