package resilience

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sharedopt"
	"sharedopt/internal/core/admissiontest"
)

// TestShardHostMatchesService is the shard's admission property: over
// seeded op scripts that trip every admission rule, a ShardHost gives
// each operation exactly the verdict a plain sharedopt.Service gives —
// nil or the same error text — including ErrPeriodOver after the horizon
// and after a close, and the kind-mismatch refusal. A host that replays
// its own journal comes back in the same state.
func TestShardHostMatchesService(t *testing.T) {
	const horizon = 6
	ctx := context.Background()
	for _, kind := range []sharedopt.GameKind{sharedopt.Additive, sharedopt.Substitutive} {
		subst := kind == sharedopt.Substitutive
		other := sharedopt.Substitutive
		if subst {
			other = sharedopt.Additive
		}
		hit := map[string]bool{}
		for seed := uint64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("kind=%v/seed=%d", kind, seed), func(t *testing.T) {
				catalog := admissiontest.Catalog()
				var m MemLog
				host, err := NewShardHost(kind, catalog, horizon, 0, 1, &m)
				if err != nil {
					t.Fatal(err)
				}
				svc, err := newService(kind, catalog, horizon)
				if err != nil {
					t.Fatal(err)
				}
				submit := func(op admissiontest.Op, k sharedopt.GameKind) (got, want error, dedup bool) {
					rec := additiveBidRecord(op.Opt, op.Bid)
					if k == sharedopt.Additive {
						want = svc.SubmitAdditiveBid(op.Opt, op.Bid)
					} else {
						rec = substBidRecord(op.SubstBid())
						want = svc.SubmitSubstitutiveBid(op.SubstBid())
					}
					res, got := host.Submit(ctx, rec)
					return got, want, got == nil && !res.Fresh
				}
				for i, op := range admissiontest.Script(seed, subst, 60) {
					var got, want error
					switch {
					case seed%2 == 1 && i == 30:
						_, want = svc.ClosePeriod()
						got = host.ClosePeriod(ctx)
						hit["close"] = true
					case op.Advance:
						_, want = svc.AdvanceSlot()
						info, _ := host.Stats(ctx)
						got = host.Advance(ctx, int(info.Now)+1)
					case i%7 == 0:
						got, want, _ = submit(op, other)
					default:
						var dedup bool
						// An exact duplicate of a journaled bid is acknowledged
						// by dedup; the Service, which has none, judges it as a
						// no-op revision. Neither changes state.
						if got, want, dedup = submit(op, kind); dedup {
							continue
						}
					}
					if verdict(got) != verdict(want) {
						t.Fatalf("op %d (%+v): shard says %q, Service %q", i, op, verdict(got), verdict(want))
					}
					switch {
					case errors.Is(got, sharedopt.ErrPeriodOver) && seed%2 == 1 && i > 30:
						hit["period over after close"] = true
					case errors.Is(got, sharedopt.ErrPeriodOver):
						hit["period over after horizon"] = true
					case got != nil && strings.Contains(got.Error(), "bid on a"):
						hit["kind mismatch"] = true
					}
				}
				recs, _, _ := ReadJournal(m.Bytes())
				replayed, err := RecoverShardHost(recs, &MemLog{})
				if err != nil {
					t.Fatal(err)
				}
				live, _ := host.Stats(ctx)
				back, _ := replayed.Stats(ctx)
				if !reflect.DeepEqual(live, back) {
					t.Fatalf("replayed host %+v, live %+v", back, live)
				}
			})
		}
		for _, want := range []string{"close", "kind mismatch", "period over after close", "period over after horizon"} {
			if !hit[want] {
				t.Errorf("kind=%v: no script reached %q", kind, want)
			}
		}
	}
}

// verdict renders an operation's outcome for comparison.
func verdict(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}
