package main

// Network chaos mode (-chaos-net): seeded end-to-end fault sweeps over
// the sharded tier with a real TCP network at the ShardTransport
// boundary. Each round builds the same deterministic bid script twice —
// once against the in-process loopback tier (the fault-free reference),
// once against shard hosts behind transport.ShardServer/ShardClient
// pairs suffering a seeded NetFault schedule (latency, silent drops,
// duplicated deliveries, reordered sends, connection resets), a
// connection blackout, and one shard process kill with journal recovery
// mid-traffic — then asserts the robustness invariants:
//
//   - byte-identical settlement: the faulted TCP run closes with
//     exactly the reference run's invoices, revenue, cost, and
//     implemented set;
//   - exact accounting: every scripted bid is accepted exactly once and
//     the clients' outcomes match the shards' own counters;
//   - durability without duplication: each shard journal holds exactly
//     one record per accepted bid, even though the network delivered
//     some submissions twice and retried others blindly — zero
//     double-journaled bids;
//   - deterministic joint recovery: recovering the surviving journals
//     twice yields identical state, equal to the live run's settlement.
//
// Any violation exits non-zero naming the round and seed, which
// reproduces the schedule exactly.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"sharedopt"
	"sharedopt/internal/core"
	"sharedopt/internal/econ"
	"sharedopt/internal/obs"
	"sharedopt/internal/resilience"
	"sharedopt/internal/resilience/transport"
	"sharedopt/internal/stats"
)

func runNetChaos(seed uint64, rounds int, w io.Writer) error {
	if rounds < 1 {
		return fmt.Errorf("chaos-net needs at least 1 round, got %d", rounds)
	}
	for i := 0; i < rounds; i++ {
		rs := seed + uint64(i)
		report, err := netChaosRound(rs)
		if err != nil {
			return fmt.Errorf("net round %d (seed %d): %w", i, rs, err)
		}
		fmt.Fprintf(w, "chaos round %d (net): %s\n", i, report)
	}
	fmt.Fprintf(w, "chaos-net: %d rounds clean (base seed %d)\n", rounds, seed)
	return nil
}

// netBid is one scripted submission.
type netBid struct {
	user       core.UserID
	opt        core.OptID
	set        []core.OptID
	start, end core.Slot
	vals       []econ.Money
}

// netScript is a deterministic workload: bids in submission order plus
// the bid count before each slot advance. The same script drives the
// reference and the faulted run.
type netScript struct {
	kind    sharedopt.GameKind
	catalog []sharedopt.Optimization
	horizon core.Slot
	bids    []netBid
	advs    []int
}

func buildNetScript(r *stats.RNG) netScript {
	sc := netScript{kind: sharedopt.Additive, horizon: core.Slot(3 + r.Intn(3))}
	if r.Intn(2) == 1 {
		sc.kind = sharedopt.Substitutive
	}
	sc.catalog = make([]sharedopt.Optimization, 2+r.Intn(2))
	for i := range sc.catalog {
		sc.catalog[i] = sharedopt.Optimization{
			ID:   core.OptID(i + 1),
			Cost: econ.FromCents(int64(300 + r.Intn(1500))),
		}
	}
	user := core.UserID(0)
	for now := core.Slot(0); now < sc.horizon; now++ {
		for n := 5 + r.Intn(5); n > 0; n-- {
			user++
			start := now + 1 + core.Slot(r.Intn(int(sc.horizon-now)))
			end := start + core.Slot(r.Intn(int(sc.horizon-start)+1))
			vals := make([]econ.Money, int(end-start+1))
			for k := range vals {
				vals[k] = econ.FromCents(int64(r.Intn(900)))
			}
			sc.bids = append(sc.bids, netBid{
				user: user, start: start, end: end, vals: vals,
				opt: sc.catalog[r.Intn(len(sc.catalog))].ID,
				set: []core.OptID{sc.catalog[r.Intn(len(sc.catalog))].ID},
			})
		}
		sc.advs = append(sc.advs, len(sc.bids))
	}
	return sc
}

// submitNetBid issues one scripted bid against a tier.
func submitNetBid(s *resilience.ShardedService, kind sharedopt.GameKind, b netBid) error {
	if kind == sharedopt.Additive {
		return s.SubmitAdditiveBid(b.opt, core.OnlineBid{
			User: b.user, Start: b.start, End: b.end, Values: b.vals,
		})
	}
	return s.SubmitSubstitutiveBid(core.OnlineSubstBid{
		User: b.user, Opts: b.set, Start: b.start, End: b.end, Values: b.vals,
	})
}

// netTransient is the driver's retry predicate: unavailability and
// admission overload are both worth retrying blindly (dedup and
// window-idempotent markers make the retries safe).
func netTransient(err error) bool {
	return errors.Is(err, resilience.ErrShardUnavailable) || errors.Is(err, resilience.ErrOverloaded)
}

// driveNetScript replays the script to completion, retrying transient
// failures to a definitive outcome. hook, when set, runs before bid i —
// the chaos run uses it to kill connections and shard processes
// mid-traffic.
func driveNetScript(s *resilience.ShardedService, sc netScript, hook func(op int) error) error {
	retry := resilience.Backoff{Attempts: 100, Base: time.Millisecond, Cap: 20 * time.Millisecond, Jitter: 0.5, Seed: 7}
	ctx := context.Background()
	i := 0
	for w, upto := range sc.advs {
		for ; i < upto; i++ {
			if hook != nil {
				if err := hook(i); err != nil {
					return fmt.Errorf("chaos hook at bid %d: %w", i, err)
				}
			}
			b := sc.bids[i]
			if err := resilience.RetryIf(ctx, retry, netTransient, func() error {
				return submitNetBid(s, sc.kind, b)
			}); err != nil {
				return fmt.Errorf("bid %d (user %d): %w", i, b.user, err)
			}
		}
		if err := resilience.RetryIf(ctx, retry, netTransient, func() error {
			_, err := s.AdvanceSlot()
			return err
		}); err != nil {
			return fmt.Errorf("advance to window %d: %w", w+1, err)
		}
	}
	return resilience.RetryIf(ctx, retry, netTransient, func() error {
		_, err := s.ClosePeriod()
		return err
	})
}

// shardAddr is a mutable dial target: the kill/restart hook moves the
// shard's server to a fresh port and the client's next dial follows.
type shardAddr struct {
	mu   sync.Mutex
	addr string
}

func (a *shardAddr) set(addr string) {
	a.mu.Lock()
	a.addr = addr
	a.mu.Unlock()
}

func (a *shardAddr) dial() (net.Conn, error) {
	a.mu.Lock()
	addr := a.addr
	a.mu.Unlock()
	return net.DialTimeout("tcp", addr, time.Second)
}

// netChaosRound runs one seeded schedule and checks every invariant,
// returning a one-line report for the log.
func netChaosRound(seed uint64) (string, error) {
	r := stats.NewRNG(seed ^ 0x7e57c0de5eed1e55)
	sc := buildNetScript(r)
	shards := 2 + r.Intn(2)
	callTimeout := 120 * time.Millisecond

	// Reference: the same script against the in-process loopback tier,
	// no network, no faults.
	refWriters := make([]io.Writer, shards)
	for i := range refWriters {
		refWriters[i] = new(resilience.MemLog)
	}
	ref, err := resilience.NewShardedService(sc.kind, sc.catalog, sc.horizon, refWriters, resilience.ShardedConfig{})
	if err != nil {
		return "", fmt.Errorf("reference tier: %v", err)
	}
	if err := driveNetScript(ref, sc, nil); err != nil {
		return "", fmt.Errorf("reference run: %v", err)
	}
	want := chaosSnapshot(ref)

	// Subject: shard hosts behind real TCP servers, clients injecting a
	// seeded fault schedule.
	reg := obs.NewRegistry()
	logs := make([]*resilience.MemLog, shards)
	servers := make([]*transport.ShardServer, shards)
	boxes := make([]*shardAddr, shards)
	faults := make([]*transport.NetFault, shards)
	links := make([]resilience.ShardTransport, shards)
	defer func() {
		for _, srv := range servers {
			if srv != nil {
				srv.Close()
			}
		}
	}()
	for i := 0; i < shards; i++ {
		logs[i] = new(resilience.MemLog)
		host, err := resilience.NewShardHost(sc.kind, sc.catalog, sc.horizon, i, shards, logs[i])
		if err != nil {
			return "", fmt.Errorf("host %d: %v", i, err)
		}
		servers[i] = transport.NewShardServer(host)
		addr, err := servers[i].Listen("127.0.0.1:0")
		if err != nil {
			return "", fmt.Errorf("shard %d listen: %v", i, err)
		}
		boxes[i] = &shardAddr{addr: addr}
		faults[i] = transport.NewNetFault(transport.NetFaultConfig{
			Drop:     0.02 + 0.04*r.Float64(),
			Dup:      0.05 + 0.10*r.Float64(),
			Reorder:  0.05 * r.Float64(),
			Reset:    0.02 + 0.04*r.Float64(),
			DelayMax: 300 * time.Microsecond,
		}, seed+uint64(i)*0x9e37)
		faults[i].SetArmed(false) // handshake clean, arm before driving
		cli, err := transport.NewShardClient(transport.ClientConfig{
			Dial:        boxes[i].dial,
			CallTimeout: callTimeout,
			Retry:       resilience.Backoff{Attempts: 3, Base: time.Millisecond, Cap: 5 * time.Millisecond, Jitter: 0.5, Seed: seed + uint64(i)},
			Breaker: transport.NewBreaker(transport.BreakerConfig{
				Failures: 4, Cooldown: 25 * time.Millisecond, Obs: reg, Shard: i,
			}),
			Fault: faults[i],
			Obs:   reg,
			Shard: i,
		})
		if err != nil {
			return "", fmt.Errorf("shard %d client: %v", i, err)
		}
		defer cli.Close()
		links[i] = cli
	}
	tcp, err := resilience.NewShardedServiceOver(sc.kind, sc.catalog, sc.horizon, links, resilience.ShardedConfig{CallTimeout: callTimeout, Obs: reg})
	if err != nil {
		return "", fmt.Errorf("tcp tier: %v", err)
	}
	for _, f := range faults {
		f.SetArmed(true)
	}

	// The chaos plan: one full-tier connection blackout and one shard
	// process kill (server down, host recovered from its journal bytes,
	// restarted on a fresh port), each before a scripted bid. After the
	// kill, an earlier bid is blindly resubmitted — the duplicated
	// delivery must resolve through dedup, not double-journal.
	breakOp := r.Intn(len(sc.bids))
	killOp := r.Intn(len(sc.bids))
	killShard := r.Intn(shards)
	dupIdx := -1
	if killOp > 0 {
		dupIdx = r.Intn(killOp)
	}
	hook := func(op int) error {
		if op == breakOp {
			for _, srv := range servers {
				srv.BreakConns()
			}
		}
		if op != killOp {
			return nil
		}
		servers[killShard].Close()
		recs, _, torn := resilience.ReadJournal(logs[killShard].Bytes())
		if torn {
			return fmt.Errorf("shard %d journal torn by process kill", killShard)
		}
		host, err := resilience.RecoverShardHost(recs, logs[killShard])
		if err != nil {
			return fmt.Errorf("recovering killed shard %d: %w", killShard, err)
		}
		servers[killShard] = transport.NewShardServer(host)
		addr, err := servers[killShard].Listen("127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("restarting shard %d: %w", killShard, err)
		}
		boxes[killShard].set(addr)
		if dupIdx >= 0 {
			// Blind duplicate of an already-accepted bid: must be a
			// clean no-op on counters and journals alike.
			if err := resilience.RetryIf(context.Background(),
				resilience.Backoff{Attempts: 100, Base: time.Millisecond, Cap: 20 * time.Millisecond},
				netTransient, func() error {
					return submitNetBid(tcp, sc.kind, sc.bids[dupIdx])
				}); err != nil {
				return fmt.Errorf("duplicate resubmission of bid %d: %w", dupIdx, err)
			}
		}
		return nil
	}
	if err := driveNetScript(tcp, sc, hook); err != nil {
		return "", err
	}

	// Invariant: settlement byte-identical to the fault-free reference.
	if got := chaosSnapshot(tcp); got != want {
		return "", fmt.Errorf("faulted TCP settlement diverged from fault-free reference:\n--- faulted ---\n%s--- reference ---\n%s", got, want)
	}

	// Invariant: exact accounting. Every scripted bid was driven to
	// acceptance exactly once; nothing pending, everything settled.
	perShard := tcp.ShardStats()
	var accepted uint64
	for i, st := range perShard {
		accepted += st.Accepted
		if st.Rejected != 0 {
			return "", fmt.Errorf("shard %d rejected %d scripted bids", i, st.Rejected)
		}
		if st.Pending != 0 {
			return "", fmt.Errorf("shard %d still pending %d after close", i, st.Pending)
		}
		if st.Settled != st.Accepted {
			return "", fmt.Errorf("shard %d settled %d of %d accepted", i, st.Settled, st.Accepted)
		}
	}
	if accepted != uint64(len(sc.bids)) {
		return "", fmt.Errorf("tier accepted %d of %d scripted bids", accepted, len(sc.bids))
	}

	// Invariant: durability without duplication. One journal record per
	// accepted bid; no user's bid journaled twice anywhere, despite
	// duplicated deliveries and blind retries.
	journals := make([][]resilience.Record, shards)
	seenUser := make(map[core.UserID]int)
	for i, m := range logs {
		recs, _, torn := resilience.ReadJournal(m.Bytes())
		if torn {
			return "", fmt.Errorf("shard %d journal torn", i)
		}
		journals[i] = recs
		bidRecords := uint64(0)
		for _, rec := range recs {
			if rec.Kind != resilience.KindAdditiveBid && rec.Kind != resilience.KindSubstBid {
				continue
			}
			bidRecords++
			if prev, dup := seenUser[rec.User]; dup {
				return "", fmt.Errorf("user %d double-journaled (shards %d and %d)", rec.User, prev, i)
			}
			seenUser[rec.User] = i
		}
		if bidRecords != perShard[i].Accepted {
			return "", fmt.Errorf("shard %d journal holds %d bid records for %d accepted bids", i, bidRecords, perShard[i].Accepted)
		}
	}

	// Invariant: deterministic joint recovery, agreeing with the live
	// settlement and invoicing every journaled bid.
	discard := make([]io.Writer, shards)
	for i := range discard {
		discard[i] = io.Discard
	}
	rec1, err := resilience.RecoverShardedService(journals, discard, resilience.ShardedConfig{})
	if err != nil {
		return "", fmt.Errorf("joint recovery: %v", err)
	}
	rec2, err := resilience.RecoverShardedService(journals, discard, resilience.ShardedConfig{})
	if err != nil {
		return "", fmt.Errorf("second joint recovery: %v", err)
	}
	if w := rec1.WedgedShards(); len(w) != 0 {
		return "", fmt.Errorf("recovery wedged shards %v", w)
	}
	s1, s2 := chaosSnapshot(rec1), chaosSnapshot(rec2)
	if s1 != s2 {
		return "", fmt.Errorf("joint recovery is nondeterministic:\n%s\nvs\n%s", s1, s2)
	}
	if s1 != want {
		return "", fmt.Errorf("recovered settlement diverged from live run:\n--- recovered ---\n%s--- live ---\n%s", s1, want)
	}
	inv := rec1.Invoices()
	for u := range seenUser {
		if _, ok := inv[u]; !ok {
			return "", fmt.Errorf("accepted bid of user %d left unpriced after recovery", u)
		}
	}

	sum := func(name string) (n uint64) {
		snap := reg.Snapshot()
		for i := 0; i < shards; i++ {
			n += snap.Counters[fmt.Sprintf("shard%d.%s", i, name)]
		}
		return n
	}
	return fmt.Sprintf("kind=%v shards=%d bids=%d killOp=%d/shard%d breakOp=%d faults=[%s] retries=%d redials=%d strays=%d breaker_opens=%d surplus=%v",
		sc.kind, shards, len(sc.bids), killOp, killShard, breakOp, faultSummary(faults),
		sum("net_retries"), sum("net_redials"), sum("net_stray_replies"), sum("net_breaker_open"), rec1.Surplus()), nil
}

func faultSummary(faults []*transport.NetFault) string {
	var b []byte
	for i, f := range faults {
		if i > 0 {
			b = append(b, "; "...)
		}
		b = append(b, f.String()...)
	}
	return string(b)
}
