package main

// Network chaos mode (-chaos-net): seeded fault sweeps over the sharded
// tier with a real TCP network at the ShardTransport boundary. Each round
// drives one tiercheck script twice: once through the in-process loopback
// tier, the fault-free reference, and once through shard hosts behind
// transport.ShardServer/ShardClient pairs suffering a seeded NetFault
// schedule (latency, silent drops, duplicated deliveries, reordered
// sends, connection resets), one connection blackout, and one shard
// process kill with journal recovery mid-traffic, after which an earlier
// bid is blindly resubmitted. The faulted run must settle byte-identical
// to the reference and hold tiercheck's invariants; so must the joint
// recovery of its journals. A violation fails the command, naming the
// round and the seed that reproduces it.

import (
	"fmt"
	"io"
	"time"

	"sharedopt"
	"sharedopt/internal/core"
	"sharedopt/internal/obs"
	"sharedopt/internal/resilience"
	"sharedopt/internal/resilience/transport"
	"sharedopt/internal/stats"
	"sharedopt/internal/tiercheck"
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

// netChaosRound runs one seeded schedule and checks every invariant,
// returning a one-line report for the log.
func netChaosRound(seed uint64) (string, error) {
	r := stats.NewRNG(seed ^ 0x7e57c0de5eed1e55)
	horizon := core.Slot(3 + r.Intn(3))
	kind := sharedopt.Additive
	if r.Intn(2) == 1 {
		kind = sharedopt.Substitutive
	}
	catalog := tiercheck.RandomCatalog(r, 2+r.Intn(2))
	sc := tiercheck.NewScript(r.Uint64(), kind, catalog, horizon, 5, 9)
	shards := 2 + r.Intn(2)
	callTimeout := 120 * time.Millisecond

	// Reference: the same script against the in-process loopback tier,
	// no network, no faults.
	_, refWriters := tiercheck.MemWriters(shards)
	ref, err := resilience.NewShardedService(kind, catalog, horizon, refWriters, resilience.ShardedConfig{})
	if err != nil {
		return "", fmt.Errorf("reference tier: %v", err)
	}
	if _, err := tiercheck.Drive(ref, sc, tiercheck.Strict, tiercheck.Hooks{}); err != nil {
		return "", fmt.Errorf("reference run: %v", err)
	}
	want := tiercheck.Snapshot(ref)

	// Subject: shard hosts behind real TCP servers, clients injecting a
	// seeded fault schedule.
	reg := obs.NewRegistry()
	logs, _ := tiercheck.MemWriters(shards)
	servers := make([]*transport.ShardServer, shards)
	addrs := make([]*tiercheck.Addr, shards)
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
		host, err := resilience.NewShardHost(kind, catalog, horizon, i, shards, logs[i])
		if err != nil {
			return "", fmt.Errorf("host %d: %v", i, err)
		}
		servers[i] = transport.NewShardServer(host)
		addr, err := servers[i].Listen("127.0.0.1:0")
		if err != nil {
			return "", fmt.Errorf("shard %d listen: %v", i, err)
		}
		addrs[i] = tiercheck.NewAddr(addr)
		faults[i] = transport.NewNetFault(transport.NetFaultConfig{
			Drop:     0.02 + 0.04*r.Float64(),
			Dup:      0.05 + 0.10*r.Float64(),
			Reorder:  0.05 * r.Float64(),
			Reset:    0.02 + 0.04*r.Float64(),
			DelayMax: 300 * time.Microsecond,
		}, seed+uint64(i)*0x9e37)
		faults[i].SetArmed(false) // handshake clean, arm before driving
		cli, err := transport.NewShardClient(transport.ClientConfig{
			Dial:        addrs[i].Dial,
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
	tcp, err := resilience.NewShardedServiceOver(kind, catalog, horizon, links, resilience.ShardedConfig{CallTimeout: callTimeout, Obs: reg})
	if err != nil {
		return "", fmt.Errorf("tcp tier: %v", err)
	}
	for _, f := range faults {
		f.SetArmed(true)
	}

	// The chaos plan: one full-tier connection blackout and one shard
	// process kill (server down, host recovered from its journal bytes,
	// restarted on a fresh port), each before a scripted op. After the
	// kill, an earlier acknowledged bid is blindly resubmitted: the
	// duplicated delivery must resolve through dedup, not double-journal.
	breakOp := r.Intn(len(sc.Ops))
	killOp := r.Intn(len(sc.Ops))
	killShard := r.Intn(shards)
	var acked []int
	for i, op := range sc.Ops[:killOp] {
		if op.Kind == tiercheck.Submit || op.Kind == tiercheck.Dup || op.Kind == tiercheck.Revise {
			acked = append(acked, i)
		}
	}
	dupIdx := -1
	if len(acked) > 0 {
		dupIdx = acked[r.Intn(len(acked))]
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
		var host *resilience.ShardHost
		var err error
		if len(recs) == 0 {
			// The shard died before its first group, config record
			// included, was written: nothing on it was acknowledged, so
			// it restarts fresh.
			host, err = resilience.NewShardHost(kind, catalog, horizon, killShard, shards, logs[killShard])
		} else {
			host, err = resilience.RecoverShardHost(recs, logs[killShard])
		}
		if err != nil {
			return fmt.Errorf("recovering killed shard %d: %w", killShard, err)
		}
		servers[killShard] = transport.NewShardServer(host)
		addr, err := servers[killShard].Listen("127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("restarting shard %d: %w", killShard, err)
		}
		addrs[killShard].Set(addr)
		if dupIdx >= 0 {
			// A clean no-op on counters and journals alike, which the
			// accounting and journal checks below confirm.
			if err := tiercheck.Retry(func() error { return sc.Submit(tcp, sc.Ops[dupIdx]) }); err != nil {
				return fmt.Errorf("duplicate resubmission of op %d: %w", dupIdx, err)
			}
		}
		return nil
	}
	tally, err := tiercheck.Drive(tcp, sc, tiercheck.Strict, tiercheck.Hooks{Before: hook})
	if err != nil {
		return "", err
	}
	if got := tiercheck.Snapshot(tcp); got != want {
		return "", fmt.Errorf("faulted TCP settlement diverged from fault-free reference:\n--- faulted ---\n%s--- reference ---\n%s", got, want)
	}

	counters := tcp.ShardStats()
	journals := make([][]resilience.Record, shards)
	for i, m := range logs {
		recs, _, torn := resilience.ReadJournal(m.Bytes())
		if torn {
			return "", fmt.Errorf("shard %d journal torn", i)
		}
		journals[i] = recs
	}
	for _, err := range []error{
		tiercheck.Accounting(counters, tally, sc.Bids()),
		tiercheck.Settled(counters),
		tiercheck.Journaled(journals, counters),
	} {
		if err != nil {
			return "", err
		}
	}
	rec, err := tiercheck.RecoverTwice(journals, nil, resilience.ShardedConfig{})
	if err != nil {
		return "", err
	}
	if got := tiercheck.Snapshot(rec); got != want {
		return "", fmt.Errorf("recovered settlement diverged from live run:\n--- recovered ---\n%s--- live ---\n%s", got, want)
	}
	for _, err := range []error{tiercheck.Invoiced(journals, rec), tiercheck.Surplus(rec)} {
		if err != nil {
			return "", err
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
		kind, shards, sc.Bids(), killOp, killShard, breakOp, faultSummary(faults),
		sum("net_retries"), sum("net_redials"), sum("net_stray_replies"), sum("net_breaker_open"), rec.Surplus()), nil
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
