package transport

// Seeded network-fault sweeps over the sharded tier with a real TCP
// network at the ShardTransport boundary. Each round drives one
// tiercheck script twice: once through the in-process loopback tier, the
// fault-free reference, and once through shard hosts behind
// ShardServer/ShardClient pairs whose connections suffer a seeded
// NetFault schedule (latency, silent drops, duplicated writes, reordered
// writes, connection resets), one connection blackout, and one shard
// process kill with journal recovery mid-traffic, after which an earlier
// bid is blindly resubmitted. The faulted run must settle byte-identical
// to the reference and hold tiercheck's invariants; so must the joint
// recovery of its journals.
//
// FuzzNetChaos runs one round per input seed. go test runs the seed
// corpus; a soak (go test -run '^$' -fuzz FuzzNetChaos -fuzztime 10m)
// draws further seeds and saves any failing one under testdata/fuzz/.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"sharedopt"
	"sharedopt/internal/core"
	"sharedopt/internal/obs"
	"sharedopt/internal/resilience"
	"sharedopt/internal/stats"
	"sharedopt/internal/tiercheck"
)

// netChaosSeeds is FuzzNetChaos's seed corpus.
var netChaosSeeds = []uint64{7, 8, 9, 10, 1, 2}

func FuzzNetChaos(f *testing.F) {
	for _, seed := range netChaosSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		report, err := netChaosRound(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		t.Logf("seed %d: %s", seed, report)
	})
}

// netRound is one round's seeded draw: the workload, the tier's shape,
// each shard connection's fault injector, and the chaos plan — a
// full-tier connection blackout before op breakOp, a process kill of
// shard killShard before op killOp, and then a blind resubmission of
// the acknowledged op dupIdx (-1 for none).
type netRound struct {
	kind                       sharedopt.GameKind
	catalog                    []sharedopt.Optimization
	horizon                    core.Slot
	sc                         tiercheck.Script
	shards                     int
	faults                     []*NetFault
	breakOp, killOp, killShard int
	dupIdx                     int
}

func drawNetRound(seed uint64) netRound {
	r := stats.NewRNG(seed ^ 0x7e57c0de5eed1e55)
	d := netRound{kind: sharedopt.Additive, dupIdx: -1}
	d.horizon = core.Slot(3 + r.Intn(3))
	if r.Intn(2) == 1 {
		d.kind = sharedopt.Substitutive
	}
	d.catalog = tiercheck.RandomCatalog(r, 2+r.Intn(2))
	d.sc = tiercheck.NewScript(r.Uint64(), d.kind, d.catalog, d.horizon, 5, 9)
	d.shards = 2 + r.Intn(2)
	d.faults = make([]*NetFault, d.shards)
	for i := range d.faults {
		d.faults[i] = NewNetFault(NetFaultConfig{
			Drop:     0.02 + 0.04*r.Float64(),
			Dup:      0.05 + 0.10*r.Float64(),
			Reorder:  0.05 * r.Float64(),
			Reset:    0.02 + 0.04*r.Float64(),
			DelayMax: 300 * time.Microsecond,
		}, seed+uint64(i)*0x9e37)
	}
	d.breakOp = r.Intn(len(d.sc.Ops))
	d.killOp = r.Intn(len(d.sc.Ops))
	d.killShard = r.Intn(d.shards)
	var acked []int
	for i, op := range d.sc.Ops[:d.killOp] {
		if op.Kind == tiercheck.Submit || op.Kind == tiercheck.Dup || op.Kind == tiercheck.Revise {
			acked = append(acked, i)
		}
	}
	if len(acked) > 0 {
		d.dupIdx = acked[r.Intn(len(acked))]
	}
	return d
}

// netChaosRound runs one seeded schedule and checks every invariant,
// returning a one-line report.
func netChaosRound(seed uint64) (string, error) {
	d := drawNetRound(seed)
	kind, catalog, horizon, sc, shards, faults := d.kind, d.catalog, d.horizon, d.sc, d.shards, d.faults
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

	// Subject: shard hosts behind real TCP servers, each client's
	// connections suffering its seeded fault schedule.
	reg := obs.NewRegistry()
	logs, _ := tiercheck.MemWriters(shards)
	servers := make([]*ShardServer, shards)
	addrs := make([]*dialTarget, shards)
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
		servers[i] = NewShardServer(host)
		addr, err := servers[i].Listen("127.0.0.1:0")
		if err != nil {
			return "", fmt.Errorf("shard %d listen: %v", i, err)
		}
		addrs[i] = newDialTarget(addr)
		faults[i].SetArmed(false) // handshake clean, arm before driving
		cli, err := NewShardClient(ClientConfig{
			Dial:        faults[i].WrapDial(addrs[i].Dial),
			CallTimeout: callTimeout,
			Retry:       resilience.Backoff{Attempts: 3, Base: time.Millisecond, Cap: 5 * time.Millisecond, Jitter: 0.5, Seed: seed + uint64(i)},
			Breaker: NewBreaker(BreakerConfig{
				Failures: 4, Cooldown: 25 * time.Millisecond, Obs: reg, Shard: i,
			}),
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

	// The chaos plan: after the kill, an earlier acknowledged bid is
	// blindly resubmitted; the duplicated delivery must resolve through
	// dedup, not double-journal.
	hook := func(op int) error {
		if op == d.breakOp {
			for _, srv := range servers {
				breakConns(srv)
			}
		}
		if op != d.killOp {
			return nil
		}
		ks := d.killShard
		servers[ks].Close()
		recs, _, torn := resilience.ReadJournal(logs[ks].Bytes())
		if torn {
			return fmt.Errorf("shard %d journal torn by process kill", ks)
		}
		var host *resilience.ShardHost
		var err error
		if len(recs) == 0 {
			// The shard died before its first group, config record
			// included, was written: nothing on it was acknowledged, so
			// it restarts fresh.
			host, err = resilience.NewShardHost(kind, catalog, horizon, ks, shards, logs[ks])
		} else {
			host, err = resilience.RecoverShardHost(recs, logs[ks])
		}
		if err != nil {
			return fmt.Errorf("recovering killed shard %d: %w", ks, err)
		}
		servers[ks] = NewShardServer(host)
		addr, err := servers[ks].Listen("127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("restarting shard %d: %w", ks, err)
		}
		addrs[ks].Set(addr)
		if d.dupIdx >= 0 {
			// A clean no-op on counters and journals alike, which the
			// accounting and journal checks below confirm.
			if err := tiercheck.Retry(func() error { return sc.Submit(tcp, sc.Ops[d.dupIdx]) }); err != nil {
				return fmt.Errorf("duplicate resubmission of op %d: %w", d.dupIdx, err)
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
	summaries := make([]string, shards)
	for i, f := range faults {
		summaries[i] = f.String()
	}
	return fmt.Sprintf("kind=%v shards=%d bids=%d killOp=%d/shard%d breakOp=%d faults=[%s] retries=%d redials=%d strays=%d breaker_opens=%d surplus=%v",
		kind, shards, sc.Bids(), d.killOp, d.killShard, d.breakOp, strings.Join(summaries, "; "),
		sum("net_retries"), sum("net_redials"), sum("net_stray_replies"), sum("net_breaker_open"), rec.Surplus()), nil
}

// TestChaosCorpusCoversFaultKinds pins the seed corpus to the network
// faults the sweep draws: across the corpus, the injectors' first 200
// draws include a drop, a duplicate, a reorder and a reset. It reads the
// draws, not the rounds' outcomes, so it cannot flake.
func TestChaosCorpusCoversFaultKinds(t *testing.T) {
	found := map[faultKind]bool{}
	for _, seed := range netChaosSeeds {
		for _, f := range drawNetRound(seed).faults {
			for i := 0; i < 200; i++ {
				kind, _ := f.draw()
				found[kind] = true
			}
		}
	}
	names := map[faultKind]string{faultDrop: "drop", faultDup: "dup", faultReorder: "reorder", faultReset: "reset"}
	for kind, name := range names {
		if !found[kind] {
			t.Errorf("no corpus seed's injectors draw a %s in their first 200 writes", name)
		}
	}
}
