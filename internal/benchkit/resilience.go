package benchkit

import (
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sharedopt"
	"sharedopt/internal/core"
	"sharedopt/internal/econ"
	"sharedopt/internal/obs"
	"sharedopt/internal/resilience"
	"sharedopt/internal/resilience/transport"
	"sharedopt/internal/stats"
)

// serviceBids draws the fixed workload ServiceGame prices: one bid per
// user over a 12-slot horizon against a 4-optimization catalog,
// identical across runs.
type serviceBid struct {
	user   core.UserID
	opt    core.OptID
	start  core.Slot
	end    core.Slot
	values []econ.Money
}

func serviceBids(users int, horizon core.Slot) ([]sharedopt.Optimization, []serviceBid) {
	r := stats.NewRNG(11)
	catalog := []sharedopt.Optimization{
		{ID: 1, Cost: econ.FromDollars(8)},
		{ID: 2, Cost: econ.FromDollars(5)},
		{ID: 3, Cost: econ.FromDollars(12)},
		{ID: 4, Cost: econ.FromDollars(3)},
	}
	bids := make([]serviceBid, users)
	for i := range bids {
		start := core.Slot(1 + r.Intn(int(horizon)))
		end := start + core.Slot(r.Intn(int(horizon-start)+1))
		values := make([]econ.Money, int(end-start+1))
		for k := range values {
			values[k] = econ.FromCents(int64(r.Intn(600)))
		}
		bids[i] = serviceBid{
			user: core.UserID(i + 1), opt: catalog[r.Intn(len(catalog))].ID,
			start: start, end: end, values: values,
		}
	}
	return catalog, bids
}

// ServiceGame returns the benchmark body for one complete 12-slot,
// 48-user additive pricing period through the plain in-memory service
// layer.
func ServiceGame() func(b *testing.B) {
	return func(b *testing.B) {
		const users, horizon = 48, core.Slot(12)
		catalog, bids := serviceBids(users, horizon)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			svc, err := sharedopt.NewAdditiveService(catalog, horizon)
			if err != nil {
				b.Fatal(err)
			}
			for _, bid := range bids {
				if err := svc.SubmitAdditiveBid(bid.opt, core.OnlineBid{
					User: bid.user, Start: bid.start, End: bid.end, Values: bid.values,
				}); err != nil {
					b.Fatal(err)
				}
			}
			for t := core.Slot(0); t < horizon; t++ {
				if _, err := svc.AdvanceSlot(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// ShardedIngestThroughput returns the benchmark body for the sharded
// durable tier under sustained concurrent intake: GOMAXPROCS submitters
// drive 4 waves of 256 single-slot bids each into a ShardedService with
// the given shard count (each shard journaling to its own MemLog), with
// a timed AdvanceSlot settling every wave. Besides ns/op it reports the
// sustained intake rate ("bids/s") and the p99 slot-advance latency
// ("p99-adv-ns") — the two service-level numbers the sharded tier
// exists to improve, tracked via Result.Extra in the BENCH_*.json
// trajectory. The shards=1 body is the single-journal baseline the
// sharded4 pair gate holds the 4-shard body against: identical workload
// and settlement, only the intake journal count differs.
func ShardedIngestThroughput(shards int) func(b *testing.B) {
	return shardedIngestBody(shards, false)
}

// ShardedIngestInstrumented is ShardedIngestThroughput with a live
// obs.Registry attached to the tier, so it exports: the high-water
// marks and latency histograms are maintained on the hot path, next to
// the outcome counters both bodies keep. The obs-vs-bare pair gate
// bounds what export may cost.
func ShardedIngestInstrumented(shards int) func(b *testing.B) {
	return shardedIngestBody(shards, true)
}

// ingestWaveCount and ingestWavePerWave fix the sharded-ingest workload
// shape shared by every ShardedIngest* body: 4 waves of 256 single-slot
// bids, one timed AdvanceSlot per wave.
const (
	ingestWaves   = 4
	ingestPerWave = 256
)

// driveIngestWaves pushes the fixed sharded-ingest workload through ss
// with the given worker count and appends each wave's AdvanceSlot
// latency (ns) to advNs. Shared by the loopback and TCP bodies so the
// tcp-vs-loopback pair measures the transport, not workload drift.
func driveIngestWaves(b *testing.B, ss *resilience.ShardedService, workers int, advNs *[]float64) {
	var next atomic.Int64
	for wave := 1; wave <= ingestWaves; wave++ {
		slot := core.Slot(wave)
		hi := int64(wave * ingestPerWave)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					u := next.Add(1)
					if u > hi {
						return
					}
					if err := ss.SubmitAdditiveBid(1, core.OnlineBid{
						User: core.UserID(u), Start: slot, End: slot,
						Values: []econ.Money{econ.Dollar},
					}); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		start := time.Now()
		if _, err := ss.AdvanceSlot(); err != nil {
			b.Fatal(err)
		}
		*advNs = append(*advNs, float64(time.Since(start).Nanoseconds()))
	}
	if got := ss.Invoices(); len(got) == 0 {
		b.Fatal("no user was invoiced")
	}
}

// reportIngestMetrics emits the two service-level extras every
// ShardedIngest* body tracks in the BENCH_*.json trajectory.
func reportIngestMetrics(b *testing.B, advNs []float64) {
	if e := b.Elapsed(); e > 0 {
		b.ReportMetric(float64(b.N*ingestPerWave*ingestWaves)/e.Seconds(), "bids/s")
	}
	b.ReportMetric(stats.Percentile(advNs, 0.99), "p99-adv-ns")
}

// shardedIngestBody is the shared body; instrumented chooses whether
// the tier carries an obs.Registry.
func shardedIngestBody(shards int, instrumented bool) func(b *testing.B) {
	return func(b *testing.B) {
		catalog := []sharedopt.Optimization{{ID: 1, Cost: econ.FromDollars(50)}}
		workers := runtime.GOMAXPROCS(0)
		var advNs []float64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			writers := make([]io.Writer, shards)
			for s := range writers {
				writers[s] = new(resilience.MemLog)
			}
			var reg *obs.Registry
			if instrumented {
				reg = obs.NewRegistry()
			}
			ss, err := resilience.NewShardedService(sharedopt.Additive, catalog,
				core.Slot(ingestWaves), writers, resilience.ShardedConfig{Obs: reg})
			if err != nil {
				b.Fatal(err)
			}
			driveIngestWaves(b, ss, workers, &advNs)
		}
		b.StopTimer()
		reportIngestMetrics(b, advNs)
	}
}

// ShardedIngestNet is ShardedIngestThroughput with the router reaching
// every shard over the length-prefixed TCP transport on loopback
// sockets instead of in-process calls: identical workload and
// settlement, plus a real network boundary — JSON framing, group-commit
// socket writes, reply routing by request ID — on every submit and
// advance. Link setup and teardown run off-timer so the measurement is
// the steady-state boundary cost, which the tcp-vs-loopback pair gate
// bounds.
func ShardedIngestNet(shards int) func(b *testing.B) {
	return func(b *testing.B) {
		catalog := []sharedopt.Optimization{{ID: 1, Cost: econ.FromDollars(50)}}
		workers := runtime.GOMAXPROCS(0)
		var advNs []float64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			links := make([]resilience.ShardTransport, shards)
			clients := make([]*transport.ShardClient, shards)
			servers := make([]*transport.ShardServer, shards)
			for s := 0; s < shards; s++ {
				host, err := resilience.NewShardHost(sharedopt.Additive, catalog,
					core.Slot(ingestWaves), s, shards, new(resilience.MemLog))
				if err != nil {
					b.Fatal(err)
				}
				srv := transport.NewShardServer(host)
				addr, err := srv.Listen("127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				cl, err := transport.NewShardClient(transport.ClientConfig{
					Dial: func() (net.Conn, error) {
						return net.DialTimeout("tcp", addr, time.Second)
					},
					Retry: resilience.Backoff{
						Attempts: 3, Base: time.Millisecond,
						Cap: 5 * time.Millisecond, Seed: uint64(s + 1),
					},
					Shard: s,
				})
				if err != nil {
					b.Fatal(err)
				}
				servers[s], clients[s], links[s] = srv, cl, cl
			}
			ss, err := resilience.NewShardedServiceOver(sharedopt.Additive, catalog,
				core.Slot(ingestWaves), links, resilience.ShardedConfig{})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			driveIngestWaves(b, ss, workers, &advNs)
			b.StopTimer()
			for s := range clients {
				clients[s].Close()
				servers[s].Close()
			}
			b.StartTimer()
		}
		b.StopTimer()
		reportIngestMetrics(b, advNs)
	}
}

// The spot-shaped tier TierRetained settles: 50 periods of 12 slots over
// 8 optimizations, each period a fresh 4-shard tier, with 184
// single-slot bids from new users in every slot — 110,400 bids.
const (
	retainedPeriods = 50
	retainedShards  = 4
	retainedHorizon = core.Slot(12)
	retainedOpts    = 8
	retainedPerSlot = 184
)

// TierRetained returns the benchmark body that measures what settled
// tiers keep per bid: it settles every period of the spot-shaped run
// above, keeps every tier, as a caller reading their invoices does, and
// reports the live heap they hold after a collection, divided by the
// bids ("retained-B/bid"). Unlike a process's peak RSS, the count does
// not depend on the host or the collector's pacing.
func TierRetained() func(b *testing.B) {
	return func(b *testing.B) {
		var perBid float64
		for i := 0; i < b.N; i++ {
			perBid = tierRetainedPerBid(b)
		}
		b.ReportMetric(perBid, "retained-B/bid")
	}
}

// tierRetainedPerBid settles the spot-shaped run over journals that
// discard their bytes and returns the heap the settled tiers retain, in
// bytes per bid.
func tierRetainedPerBid(tb testing.TB) float64 {
	catalog := make([]sharedopt.Optimization, retainedOpts)
	for i := range catalog {
		catalog[i] = sharedopt.Optimization{ID: core.OptID(i + 1), Cost: econ.FromDollars(2)}
	}
	r := stats.NewRNG(24)
	before := liveHeap()
	tiers := make([]*resilience.ShardedService, retainedPeriods)
	var user core.UserID
	for p := range tiers {
		writers := make([]io.Writer, retainedShards)
		for s := range writers {
			writers[s] = io.Discard
		}
		ss, err := resilience.NewShardedService(sharedopt.Additive, catalog, retainedHorizon, writers, resilience.ShardedConfig{})
		if err != nil {
			tb.Fatal(err)
		}
		for slot := core.Slot(1); slot <= retainedHorizon; slot++ {
			for k := 0; k < retainedPerSlot; k++ {
				user++
				bid := core.OnlineBid{User: user, Start: slot, End: slot,
					Values: []econ.Money{econ.FromCents(int64(1 + r.Intn(60)))}}
				if err := ss.SubmitAdditiveBid(core.OptID(1+r.Intn(retainedOpts)), bid); err != nil {
					tb.Fatal(err)
				}
			}
			if _, err := ss.AdvanceSlot(); err != nil {
				tb.Fatal(err)
			}
		}
		tiers[p] = ss
	}
	retained := liveHeap() - before
	runtime.KeepAlive(tiers)
	return float64(retained) / float64(user)
}

// The season-shaped open period TierRetainedOpen holds: a 4-shard
// additive tier over 16 optimizations and a 400-slot horizon, stopped
// after its first 200 slots, with seasonArrivals new users (a fifth of
// them revising) bidding after each slot — 9,600 users.
const (
	openShards  = 4
	openOpts    = 16
	openHorizon = core.Slot(400)
	openPlayed  = core.Slot(200)
)

// TierRetainedOpen returns the benchmark body that measures what a tier
// holds per user while its period is still open: every bid keeps its
// dedup digest, the users present their curves in the validators and the
// settlement game, and the departed ones their payments. It reports the live
// heap the open tier holds after a collection, divided by the users
// ("retained-B/user").
func TierRetainedOpen() func(b *testing.B) {
	return func(b *testing.B) {
		var perUser float64
		for i := 0; i < b.N; i++ {
			perUser = tierRetainedOpenPerUser(b)
		}
		b.ReportMetric(perUser, "retained-B/user")
	}
}

// tierRetainedOpenPerUser plays the open period above over journals that
// discard their bytes and returns the heap the open tier retains, in
// bytes per user. The bids are drawn before the count starts and kept
// alive past it, so only what the tier allocates is counted.
func tierRetainedOpenPerUser(tb testing.TB) float64 {
	catalog, arrivals := seasonGame(25, openOpts, openHorizon, false)
	before := liveHeap()
	writers := make([]io.Writer, openShards)
	for s := range writers {
		writers[s] = io.Discard
	}
	ss, err := resilience.NewShardedService(sharedopt.Additive, catalog, openHorizon, writers, resilience.ShardedConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	users := playSeason(tb, openPlayed, arrivals, func(a seasonArrival, bid core.OnlineBid) error {
		return ss.SubmitAdditiveBid(a.opt, bid)
	}, func() {
		if _, err := ss.AdvanceSlot(); err != nil {
			tb.Fatal(err)
		}
	})
	retained := liveHeap() - before
	runtime.KeepAlive(ss)
	runtime.KeepAlive(arrivals)
	return float64(retained) / float64(users)
}

// liveHeap collects garbage and returns the bytes of the objects that
// survived.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}
