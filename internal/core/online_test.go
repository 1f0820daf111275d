package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"sharedopt/internal/core"
	"sharedopt/internal/core/admissiontest"
	"sharedopt/internal/econ"
	"sharedopt/internal/stats"
)

// mechanism is what AdditiveGame, SubstOn and their scanning references
// share.
type mechanism interface {
	AdvanceSlot() core.SlotReport
	Close() map[core.UserID]econ.Money
	TotalRevenue() econ.Money
	CostIncurred() econ.Money
}

// onlineGame is one online mechanism behind the calls the differential
// makes: the event-indexed AdditiveGame or SubstOn, or the scanning
// reference it replaced. account renders what the game holds on a user:
// their payment and whether they were charged, per optimization for
// additive games, and the optimization a substitutive game granted them.
type onlineGame struct {
	mechanism
	submit  func(admissiontest.Op) error
	account func(core.UserID) string
}

func newOnlinePair(substitutive bool) (got, want onlineGame) {
	catalog := admissiontest.Catalog()
	if substitutive {
		g, w := core.NewSubstOn(catalog), core.NewRefSubstOn(catalog)
		got = onlineGame{g, func(op admissiontest.Op) error { return g.Submit(op.SubstBid()) },
			func(u core.UserID) string { return fmt.Sprint(g.Payment(u)) + fmt.Sprint(g.GrantedOpt(u)) }}
		want = onlineGame{w, func(op admissiontest.Op) error { return w.Submit(op.SubstBid()) },
			func(u core.UserID) string { return fmt.Sprint(w.Payment(u)) + fmt.Sprint(w.GrantedOpt(u)) }}
		return got, want
	}
	g, w := core.NewAdditiveGame(catalog), core.NewRefAdditiveGame(catalog)
	got = onlineGame{g, func(op admissiontest.Op) error { return g.Submit(op.Opt, op.Bid) },
		func(u core.UserID) string {
			s := ""
			for _, o := range catalog {
				game, _ := g.Game(o.ID)
				s += fmt.Sprint(game.Payment(u)) + ";"
			}
			return s
		}}
	want = onlineGame{w, func(op admissiontest.Op) error { return w.Submit(op.Opt, op.Bid) },
		func(u core.UserID) string {
			s := ""
			for _, o := range catalog {
				s += fmt.Sprint(w.Game(o.ID).Payment(u)) + ";"
			}
			return s
		}}
	return got, want
}

// onlineTally counts what a differential run exercised, so a sweep can
// require that it granted and charged someone, and admitted revisions
// that move a start earlier, where AddOn and SubstOn gate differently.
type onlineTally struct {
	grants, charged, earlier int
}

// checkOnlineMatchesReference plays admissiontest.Script(seed, ...) on
// the indexed mechanism and on its scanning reference, closing both
// after the first closeAt ops, and fails on the first op after which
// they differ: a Submit verdict, any SlotReport field, the Close
// settlement, any seen user's account, TotalRevenue or CostIncurred.
func checkOnlineMatchesReference(t testing.TB, seed uint64, substitutive bool, n, closeAt int) onlineTally {
	t.Helper()
	got, want := newOnlinePair(substitutive)
	var tally onlineTally
	seen := map[core.UserID]bool{}
	type curve struct {
		user core.UserID
		opt  core.OptID
	}
	start := map[curve]core.Slot{} // each admitted curve's earliest start
	where := func(i int) string {
		return fmt.Sprintf("substitutive=%v seed=%d close@%d op %d", substitutive, seed, closeAt, i)
	}
	compare := func(i int) {
		t.Helper()
		for u := range seen {
			if g, w := got.account(u), want.account(u); g != w {
				t.Fatalf("%s: user %d's account %q, reference %q", where(i), u, g, w)
			}
		}
		if g, w := got.TotalRevenue(), want.TotalRevenue(); g != w {
			t.Fatalf("%s: TotalRevenue %v, reference %v", where(i), g, w)
		}
		if g, w := got.CostIncurred(), want.CostIncurred(); g != w {
			t.Fatalf("%s: CostIncurred %v, reference %v", where(i), g, w)
		}
	}
	ops := admissiontest.Script(seed, substitutive, n)
	for i, op := range ops[:min(closeAt, len(ops))] {
		if op.Advance {
			g, w := got.AdvanceSlot(), want.AdvanceSlot()
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: slot report\n got %+v\nwant %+v", where(i), g, w)
			}
			tally.grants += len(g.NewGrants)
			for _, p := range g.Departures {
				if p > 0 {
					tally.charged++
				}
			}
		} else {
			seen[op.Bid.User] = true
			g, w := got.submit(op), want.submit(op)
			if verdict(g) != verdict(w) {
				t.Fatalf("%s (%+v): Submit says %q, reference %q", where(i), op, verdict(g), verdict(w))
			}
			k := curve{user: op.Bid.User}
			if !substitutive {
				k.opt = op.Opt
			}
			if prev, ok := start[k]; g == nil && (!ok || op.Bid.Start < prev) {
				if ok {
					tally.earlier++
				}
				start[k] = op.Bid.Start
			}
		}
		compare(i)
	}
	g, w := got.Close(), want.Close()
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: Close settled %v, reference %v", where(closeAt), g, w)
	}
	compare(closeAt)
	return tally
}

// TestOnlineMatchesReference is the differential property behind the
// event-indexed online mechanisms: over seeded admission scripts for both
// game kinds, with Close drawn anywhere in the period, AdditiveGame and
// SubstOn give every bid, slot and settlement exactly the outcome of the
// scanning reference they replaced. TestValidatorMatchesMechanisms
// compares admission verdicts; this compares grants and money.
func TestOnlineMatchesReference(t *testing.T) {
	const n = 80
	for _, substitutive := range []bool{false, true} {
		var total onlineTally
		for seed := uint64(1); seed <= 300; seed++ {
			closeAt := 1 + stats.NewRNG(seed).Intn(n+n/4)
			tally := checkOnlineMatchesReference(t, seed, substitutive, n, closeAt)
			total.grants += tally.grants
			total.charged += tally.charged
			total.earlier += tally.earlier
		}
		if total.grants == 0 || total.charged == 0 || total.earlier == 0 {
			t.Errorf("substitutive=%v: the sweep granted %d users, charged %d and moved %d starts earlier; want each > 0",
				substitutive, total.grants, total.charged, total.earlier)
		}
	}
}

// FuzzOnlineMatchesReference searches script seeds and Close points for
// a divergence from the scanning reference.
func FuzzOnlineMatchesReference(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		f.Add(seed, seed%2 == 0, uint8(10*seed))
	}
	f.Fuzz(func(t *testing.T, seed uint64, substitutive bool, closeAt uint8) {
		checkOnlineMatchesReference(t, seed, substitutive, 80, 1+int(closeAt))
	})
}
