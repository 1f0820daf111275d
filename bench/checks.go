package main

// Output checks of the durable-tier workloads. Every run makes all of
// them; a failed check names the workload and the check and makes the
// command exit non-zero.

import (
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"sharedopt"
	"sharedopt/internal/core"
	"sharedopt/internal/econ"
	"sharedopt/internal/resilience"
)

// failf records the first failure of a check; later ones add nothing,
// the first is enough to start from.
func (c *check) failf(format string, args ...any) {
	if c.OK {
		c.OK, c.Detail = false, fmt.Sprintf(format, args...)
	}
}

// journalStats is what the run left in its journal files.
type journalStats struct {
	bytes       int64
	records     int
	foldPerSlot []float64           // bids folded into each settlement window
	recs        []resilience.Record // every record, kept only when traced
}

func (r *tierRun) readJournals() (journalStats, error) {
	var js journalStats
	for _, p := range r.periods {
		perWindow := make([]float64, r.plan.horizon)
		for i := 0; i < shards; i++ {
			data, err := os.ReadFile(p.logPath(i))
			if err != nil {
				return js, err
			}
			recs, _, torn := resilience.ReadJournal(data)
			if torn {
				return js, fmt.Errorf("journal %s has a damaged tail", p.logPath(i))
			}
			js.bytes += int64(len(data))
			js.records += len(recs)
			// A shard's bids between two adv markers fold into one window.
			w := 0
			for _, rec := range recs {
				switch rec.Kind {
				case resilience.KindAdditiveBid, resilience.KindSubstBid:
					if w < len(perWindow) {
						perWindow[w]++
					}
				case resilience.KindAdvanceSlot:
					w++
				}
			}
			if r.tr != nil {
				js.recs = append(js.recs, recs...)
			}
		}
		js.foldPerSlot = append(js.foldPerSlot, perWindow...)
	}
	return js, nil
}

// checkAccounting reconciles the clients' tallies with every shard's
// ShardStats: the same outcome counts, every accepted bid settled, none
// pending, and one outcome per offered bid.
func (r *tierRun) checkAccounting(offered uint64) check {
	c := check{Name: "accounting", OK: true}
	var outcomes uint64
	for pi, p := range r.periods {
		for i := range p.tally {
			t := &p.tally[i]
			want := resilience.ShardCounters{
				Accepted: t.accepted.Load(), Rejected: t.rejected.Load(), Overloaded: t.overloaded.Load(),
				ReadOnly: t.readOnly.Load(), Unavailable: t.unavailable.Load(), Settled: t.accepted.Load(),
			}
			outcomes += want.Accepted + want.Rejected + want.Overloaded + want.ReadOnly + want.Unavailable
			if p.tier == nil {
				c.failf("period %d never opened: %v", pi, p.err)
				continue
			}
			if got := p.tier.ShardStats()[i]; got != want {
				c.failf("period %d shard %d: tier counted %+v, clients %+v (Settled must equal Accepted, Pending 0)", pi, i, got, want)
			}
		}
	}
	if outcomes != offered {
		c.failf("%d outcomes for %d offered bids", outcomes, offered)
	}
	return c
}

// checkSettlement replays each period's accepted bids, slot by slot, into
// one sharedopt.Service and requires the tier's invoices, revenue, cost
// and implemented set to be byte-identical to it; it also checks cost
// recovery. users counts the distinct users the replays priced.
func (r *tierRun) checkSettlement() (settled, costRecovery check, users int) {
	settled = check{Name: "settlement", OK: true}
	costRecovery = check{Name: "cost-recovery", OK: true}
	byPeriod := make([][]int, len(r.periods))
	for i, b := range r.plan.bids {
		byPeriod[b.period] = append(byPeriod[b.period], i)
	}
	for pi, p := range r.periods {
		if p.tier == nil {
			settled.failf("period %d never opened: %v", pi, p.err)
			continue
		}
		ref, n, err := r.reference(byPeriod[pi])
		users += n
		if err != nil {
			settled.failf("period %d: the reference Service rejected an accepted bid: %v", pi, err)
			continue
		}
		if got, want := snapshot(p.tier), snapshot(ref); got != want {
			settled.failf("period %d: tier settlement differs from the reference Service at byte %d", pi, firstDiff(got, want))
		}
		if s := p.tier.Surplus(); s < 0 {
			costRecovery.failf("period %d: surplus %v < 0", pi, s)
		}
	}
	return settled, costRecovery, users
}

// reference feeds the accepted bids of one period to a plain Service, each
// just before its first slot (a user's revision after its first bid), and
// settles every slot. Traced runs time each call.
func (r *tierRun) reference(idx []int) (*sharedopt.Service, int, error) {
	horizon := core.Slot(r.plan.horizon)
	var svc *sharedopt.Service
	var err error
	if r.plan.spec.kind == sharedopt.Additive {
		svc, err = sharedopt.NewAdditiveService(r.catalog, horizon)
	} else {
		svc, err = sharedopt.NewSubstitutiveService(r.catalog, horizon)
	}
	if err != nil {
		return nil, 0, err
	}
	type refBid struct {
		b        *tierBid
		revision bool
	}
	byStart := make([][]refBid, horizon+1)
	users := 0
	for _, i := range idx {
		q, b := &r.reqs[i], &r.plan.bids[i]
		for k, revision := range []bool{false, true} {
			if q.sent[k] && q.err[k] == nil {
				byStart[b.start] = append(byStart[b.start], refBid{b, revision})
			}
		}
		if q.sent[0] && q.err[0] == nil {
			users++
		}
	}
	for t := core.Slot(1); t <= horizon; t++ {
		for _, rb := range byStart[t] {
			b, end, values := rb.b, rb.b.end, rb.b.values
			if rb.revision {
				end, values = b.revEnd, b.revValues
			}
			err := r.tr.timed("service.submit", func() error {
				if b.set == nil {
					return svc.SubmitAdditiveBid(b.opt, core.OnlineBid{User: b.user, Start: b.start, End: end, Values: values})
				}
				return svc.SubmitSubstitutiveBid(core.OnlineSubstBid{User: b.user, Opts: b.set, Start: b.start, End: end, Values: values})
			})
			if err != nil {
				return nil, users, err
			}
		}
		if err := r.tr.timed("service.advance", func() error {
			_, err := svc.AdvanceSlot()
			return err
		}); err != nil {
			return nil, users, err
		}
	}
	return svc, users, nil
}

// checkRecovery rebuilds the last period from its files and requires the
// recovered tier to equal the live one.
func (r *tierRun) checkRecovery() check {
	c := check{Name: "recovery", OK: true}
	p := r.periods[len(r.periods)-1]
	if p.tier == nil {
		c.failf("last period never opened: %v", p.err)
		return c
	}
	journals := make([][]resilience.Record, shards)
	writers := make([]io.Writer, shards)
	for i := range journals {
		log, recs, torn, err := resilience.OpenFileLog(p.logPath(i))
		if err != nil {
			c.failf("reopening %s: %v", p.logPath(i), err)
			return c
		}
		defer log.Close()
		if torn {
			c.failf("%s has a damaged tail", p.logPath(i))
		}
		journals[i], writers[i] = recs, log
	}
	rec, err := resilience.RecoverShardedService(journals, writers, resilience.ShardedConfig{})
	if err != nil {
		c.failf("recovering the last period: %v", err)
		return c
	}
	if got, want := snapshot(rec), snapshot(p.tier); got != want {
		c.failf("recovered tier differs from the live one at byte %d", firstDiff(got, want))
	}
	return c
}

// ledger is the read side shared by the tier and the reference Service.
type ledger interface {
	Invoices() map[core.UserID]econ.Money
	Revenue() econ.Money
	CostIncurred() econ.Money
	ImplementedOpts() []core.OptID
	Closed() bool
}

// snapshot renders a ledger canonically, so two ledgers agree exactly
// when their snapshots are equal.
func snapshot(l ledger) string {
	inv := l.Invoices()
	users := make([]core.UserID, 0, len(inv))
	for u := range inv {
		users = append(users, u)
	}
	slices.Sort(users)
	var b strings.Builder
	fmt.Fprintf(&b, "closed=%v revenue=%d cost=%d implemented=%v\n", l.Closed(), l.Revenue(), l.CostIncurred(), l.ImplementedOpts())
	for _, u := range users {
		b.WriteString(strconv.FormatUint(uint64(u), 10))
		b.WriteByte(' ')
		b.WriteString(strconv.FormatInt(int64(inv[u]), 10))
		b.WriteByte('\n')
	}
	return b.String()
}

func firstDiff(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
