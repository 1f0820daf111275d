package sharedopt

import (
	"fmt"
	"maps"
	"testing"

	"sharedopt/internal/core/admissiontest"
	"sharedopt/internal/stats"
)

// TestServiceLedgerMatchesReports holds the Service's ledger — Invoice,
// Invoices, Revenue and Surplus, read from the mechanism's payments — to a
// reference folded from what the Service reported: every SlotReport's
// Departures and every ClosePeriod settlement. Each seed plays an
// admissiontest script against a seeded horizon, so some periods end at
// their last slot and the rest at a seeded ClosePeriod, and the ledger is
// compared after every op, including the ops refused once the period is
// over.
func TestServiceLedgerMatchesReports(t *testing.T) {
	multiOpt, zero := 0, 0
	for _, substitutive := range []bool{false, true} {
		for seed := uint64(1); seed <= 40; seed++ {
			m, z := checkLedger(t, seed, substitutive)
			multiOpt += m
			zero += z
		}
	}
	if multiOpt == 0 {
		t.Error("no additive user was invoiced for two optimizations")
	}
	if zero == 0 {
		t.Error("no user was invoiced $0")
	}
}

// checkLedger plays one script and returns how many additive users were
// invoiced after bidding on two optimizations, and how many $0 invoices
// the period ended with.
func checkLedger(t *testing.T, seed uint64, substitutive bool) (multiOpt, zero int) {
	t.Helper()
	const n = 80
	r := stats.NewRNG(seed)
	horizon := Slot(4 + r.Intn(16))
	closeAt := r.Intn(n + 1)
	catalog := admissiontest.Catalog()
	svc, err := NewAdditiveService(catalog, horizon)
	if substitutive {
		svc, err = NewSubstitutiveService(catalog, horizon)
	}
	if err != nil {
		t.Fatal(err)
	}
	ref := make(map[UserID]Money)
	seen := make(map[UserID]bool)
	bidOn := make(map[UserID]map[OptID]bool)
	fold := func(payments map[UserID]Money) {
		for u, p := range payments {
			ref[u] += p
		}
	}
	for i, op := range admissiontest.Script(seed, substitutive, n) {
		where := fmt.Sprintf("substitutive=%v seed=%d horizon=%d close@%d op %d", substitutive, seed, horizon, closeAt, i)
		if i == closeAt {
			settled, err := svc.ClosePeriod()
			if err != nil {
				t.Fatalf("%s: ClosePeriod: %v", where, err)
			}
			fold(settled)
		}
		switch {
		case op.Advance:
			if report, err := svc.AdvanceSlot(); err == nil {
				fold(report.Departures)
			}
		case substitutive:
			seen[op.Bid.User] = true
			_ = svc.SubmitSubstitutiveBid(op.SubstBid())
		default:
			seen[op.Bid.User] = true
			if svc.SubmitAdditiveBid(op.Opt, op.Bid) == nil {
				if bidOn[op.Bid.User] == nil {
					bidOn[op.Bid.User] = make(map[OptID]bool)
				}
				bidOn[op.Bid.User][op.Opt] = true
			}
		}
		for u := range seen {
			want, wantOK := ref[u]
			if got, ok := svc.Invoice(u); got != want || ok != wantOK {
				t.Fatalf("%s: Invoice(%d) = %v, %v; reports say %v, %v", where, u, got, ok, want, wantOK)
			}
		}
		if got := svc.Invoices(); !maps.Equal(got, ref) {
			t.Fatalf("%s: Invoices() = %v; reports say %v", where, got, ref)
		}
		var revenue Money
		for _, p := range ref {
			revenue += p
		}
		if got := svc.Revenue(); got != revenue {
			t.Fatalf("%s: Revenue() = %v; reports say %v", where, got, revenue)
		}
		if got, want := svc.Surplus(), revenue-svc.CostIncurred(); got != want {
			t.Fatalf("%s: Surplus() = %v, want %v", where, got, want)
		}
	}
	if !svc.Closed() {
		settled, _ := svc.ClosePeriod()
		fold(settled)
		if got := svc.Invoices(); !maps.Equal(got, ref) {
			t.Fatalf("substitutive=%v seed=%d: Invoices() after the final close = %v; reports say %v", substitutive, seed, got, ref)
		}
	}
	for u, p := range ref {
		if p == 0 {
			zero++
		}
		if len(bidOn[u]) == 2 {
			multiOpt++
		}
	}
	return multiOpt, zero
}
