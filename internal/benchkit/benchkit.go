// Package benchkit defines the repo's key mechanism, engine, and
// workload benchmarks as reusable bodies, so that bench_test.go at the
// module root can wrap them in go-test benchmarks and cmd/benchjson can
// run the same code in-process via testing.Benchmark to emit BENCH_*.json
// perf snapshots. Keeping one definition for both consumers guarantees
// the JSON trajectory tracks exactly what `go test -bench` measures, and
// Regressions lets CI diff a fresh run against a committed snapshot.
package benchkit

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"sharedopt/internal/astro"
	"sharedopt/internal/core"
	"sharedopt/internal/econ"
	"sharedopt/internal/engine"
	"sharedopt/internal/stats"
	"sharedopt/internal/workload"
)

// Result is one benchmark measurement, shaped for JSON serialization.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Extra carries custom metrics a body published via b.ReportMetric
	// (e.g. the sharded tier's "bids/s" and "p99-adv-ns"), keyed by
	// unit. Omitted when a body reports none.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Shapley returns the benchmark body for one Shapley Value Mechanism run
// over the given number of bidders with uniformly random dollar bids. The
// cost scales with the bidder count at $0.20 per bidder: for uniform
// [0,$1) bids that implements the optimization with roughly the top 70%
// of bidders serviced at every scale, so the benchmark exercises the full
// path — sort, prefix scan, and serviced-set extraction — not the
// degenerate nobody-serviced early return.
func Shapley(bidders int) func(b *testing.B) {
	return func(b *testing.B) {
		r := stats.NewRNG(1)
		bids := make(map[core.UserID]econ.Money, bidders)
		for u := 1; u <= bidders; u++ {
			bids[core.UserID(u)] = econ.Money(r.Int63n(int64(econ.Dollar)))
		}
		cost := econ.FromDollars(0.2).MulInt(int64(bidders))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := core.Shapley(cost, bids)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Implemented() {
				b.Fatal("benchmark scenario must service a positive prefix")
			}
		}
	}
}

// AddOnGame returns the benchmark body for a complete 12-slot AddOn game
// with 24 users — one Figure 2(b) trial.
func AddOnGame() func(b *testing.B) {
	return func(b *testing.B) {
		r := stats.NewRNG(2)
		sc := workload.Collaboration(r, 24, 12, econ.FromDollars(1.5))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			game := core.NewAddOn(sc.Opts[0])
			for _, bid := range sc.Bids {
				if err := game.Submit(core.OnlineBid{User: bid.User, Start: bid.Start,
					End: bid.End, Values: bid.Values}); err != nil {
					b.Fatal(err)
				}
			}
			for t := core.Slot(1); t <= sc.Horizon; t++ {
				game.AdvanceSlot()
			}
			game.Close()
		}
	}
}

// SubstOnGame returns the benchmark body for a complete 12-slot SubstOn
// game with 24 users over 12 optimizations — one Figure 2(d) trial.
func SubstOnGame() func(b *testing.B) {
	return func(b *testing.B) {
		r := stats.NewRNG(3)
		sc := workload.Substitutes(r, 24, 12, 3, 12, econ.FromDollars(1.5))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			game := core.NewSubstOn(sc.Opts)
			for _, bid := range sc.Bids {
				if err := game.Submit(bid); err != nil {
					b.Fatal(err)
				}
			}
			for t := core.Slot(1); t <= sc.Horizon; t++ {
				game.AdvanceSlot()
			}
			game.Close()
		}
	}
}

// seasonArrival is one tenant of a season-shaped game: the slot after
// which it bids (0 = before slot 1), its additive optimization or
// substitute set, its bid, and, for a fifth of tenants, a revision sent
// right after it that raises every value and may extend the end.
type seasonArrival struct {
	after core.Slot
	opt   core.OptID
	set   []core.OptID
	bid   core.OnlineBid
	rev   *core.OnlineBid
}

// Season-shaped games: the durable tier's season and subst-season
// workloads (bench/tier.go) at a fixed arrival count per slot, in one
// process and without the tier around the mechanism.
const (
	seasonArrivals = 48  // tenants per slot
	seasonSlots    = 200 // slots per game
	seasonOpts     = 12  // catalog size
	seasonSubsts   = 3   // substitutes per substitutive bid
	seasonMaxLen   = 48  // bid lengths are 1..seasonMaxLen slots
)

// seasonGame draws a season-shaped game of the given horizon:
// seasonArrivals tenants bid after every slot, each starting one or two
// slots later for up to seasonMaxLen slots, at 1–20 cents a slot,
// against a catalog of opts $20 optimizations.
func seasonGame(seed uint64, opts int, horizon core.Slot, substitutive bool) ([]core.Optimization, []seasonArrival) {
	r := stats.NewRNG(seed)
	catalog := make([]core.Optimization, opts)
	for i := range catalog {
		catalog[i] = core.Optimization{ID: core.OptID(i + 1), Cost: econ.FromDollars(20)}
	}
	values := func(n int) []econ.Money {
		out := make([]econ.Money, n)
		for k := range out {
			out[k] = econ.FromCents(1 + int64(r.Intn(20)))
		}
		return out
	}
	var arrivals []seasonArrival
	for after := core.Slot(0); after < horizon-2; after++ {
		for range seasonArrivals {
			start := after + 1 + core.Slot(r.Intn(2))
			end := min(start+core.Slot(r.Intn(seasonMaxLen)), horizon)
			a := seasonArrival{after: after, bid: core.OnlineBid{
				User: core.UserID(len(arrivals) + 1), Start: start, End: end,
				Values: values(int(end - start + 1)),
			}}
			if substitutive {
				for _, k := range r.SampleK(opts, seasonSubsts) {
					a.set = append(a.set, core.OptID(k+1))
				}
			} else {
				a.opt = core.OptID(1 + r.Intn(opts))
			}
			if r.Intn(5) == 0 {
				rev := a.bid
				rev.End = min(end+core.Slot(r.Intn(5)), horizon)
				rev.Values = values(int(rev.End - start + 1))
				for k, v := range a.bid.Values {
					rev.Values[k] = v + econ.FromCents(1+int64(r.Intn(10)))
				}
				a.rev = &rev
			}
			arrivals = append(arrivals, a)
		}
	}
	return catalog, arrivals
}

// playSeason plays the first slots of a season-shaped game: after every
// slot it submits that slot's arrivals, each followed by its revision if
// any, then advances the game. It returns the number of arrivals.
func playSeason(tb testing.TB, slots core.Slot, arrivals []seasonArrival, submit func(seasonArrival, core.OnlineBid) error, advance func()) int {
	next := 0
	for t := core.Slot(0); t < slots; t++ {
		for ; next < len(arrivals) && arrivals[next].after == t; next++ {
			a := arrivals[next]
			if err := submit(a, a.bid); err != nil {
				tb.Fatal(err)
			}
			if a.rev != nil {
				if err := submit(a, *a.rev); err != nil {
					tb.Fatal(err)
				}
			}
		}
		advance()
	}
	return next
}

// AddOnSeason returns the benchmark body for one season-shaped additive
// game (AdditiveGame, one AddOn per optimization): 200 slots of 48
// arrivals each over 12 optimizations.
func AddOnSeason() func(b *testing.B) {
	return func(b *testing.B) {
		catalog, arrivals := seasonGame(12, seasonOpts, seasonSlots, false)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			game := core.NewAdditiveGame(catalog)
			playSeason(b, seasonSlots, arrivals, func(a seasonArrival, bid core.OnlineBid) error {
				return game.Submit(a.opt, bid)
			}, func() { game.AdvanceSlot() })
			game.Close()
		}
	}
}

// SubstOnSeason returns the benchmark body for one season-shaped SubstOn
// game: 200 slots of 48 arrivals each, every bid naming 3 of 12
// substitutes.
func SubstOnSeason() func(b *testing.B) {
	return func(b *testing.B) {
		catalog, arrivals := seasonGame(13, seasonOpts, seasonSlots, true)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			game := core.NewSubstOn(catalog)
			playSeason(b, seasonSlots, arrivals, func(a seasonArrival, bid core.OnlineBid) error {
				return game.Submit(core.OnlineSubstBid{User: bid.User, Opts: a.set, Start: bid.Start, End: bid.End, Values: bid.Values})
			}, func() { game.AdvanceSlot() })
			game.Close()
		}
	}
}

// engineHashJoinBody is the shared body of the hash-join benchmarks: the
// 10k × 10k hash join plus grouped count through the columnar engine
// (the workload tracked since BENCH_PR2.json), executed with the given
// morsel-parallel worker count (1 = the serial plan). The probe side
// spans 10 morsels, so up to 8 workers have real work to split.
func engineHashJoinBody(workers int) func(b *testing.B) {
	return func(b *testing.B) {
		r := stats.NewRNG(4)
		left := engine.NewTable("l", engine.Schema{{Name: "k", Type: engine.Int64}})
		right := engine.NewTable("r", engine.Schema{{Name: "k", Type: engine.Int64},
			{Name: "v", Type: engine.Int64}})
		for i := 0; i < 10_000; i++ {
			left.MustAppend(engine.Row{engine.I(r.Int63n(5000))})
			right.MustAppend(engine.Row{engine.I(r.Int63n(5000)), engine.I(int64(i))})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			meter := engine.NewMeter(engine.DefaultCostModel())
			if _, err := engine.Scan(left, meter).WithParallelism(workers).
				HashJoin(engine.Scan(right, meter).WithParallelism(workers), "k", "k").
				GroupCount("k").Rows(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// EngineHashJoin returns the benchmark body for the serial hash-join plus
// grouped-count pipeline.
func EngineHashJoin() func(b *testing.B) { return engineHashJoinBody(1) }

// EngineHashJoinParallel returns the same pipeline executed
// morsel-parallel with the given worker count — the tentpole the
// relative-pair CI gate holds against the serial body.
func EngineHashJoinParallel(workers int) func(b *testing.B) {
	return engineHashJoinBody(workers)
}

// engineBuildJoinBody is the shared body of the build-sink benchmarks: a
// join whose cost is dominated by materializing and hash-building a 64k-
// row build side against a small (2k-row) probe side. At workers ≥ 2 the
// build drains morsel-parallel AND populates its hash table with the
// radix-partitioned parallel build (the build side is far above
// partitionedBuildMinRows); at workers == 1 it is the serial sink the
// pair gate holds the partitioned build against. The probe pipeline is
// identical on both sides of the pair, so the measured ratio isolates
// the build sink.
func engineBuildJoinBody(workers int) func(b *testing.B) {
	return func(b *testing.B) {
		r := stats.NewRNG(6)
		probe := engine.NewTable("p", engine.Schema{{Name: "k", Type: engine.Int64}})
		build := engine.NewTable("b", engine.Schema{{Name: "k", Type: engine.Int64},
			{Name: "v", Type: engine.Int64}})
		for i := 0; i < 2_000; i++ {
			probe.MustAppend(engine.Row{engine.I(r.Int63n(32_768))})
		}
		for i := 0; i < 65_536; i++ {
			build.MustAppend(engine.Row{engine.I(r.Int63n(32_768)), engine.I(int64(i))})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			meter := engine.NewMeter(engine.DefaultCostModel())
			if err := engine.Scan(probe, meter).WithParallelism(workers).
				HashJoin(engine.Scan(build, meter).WithParallelism(workers), "k", "k").
				ForEachBatch(func(*engine.Batch) error { return nil }); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// EngineBuildJoin returns the build-dominated join with the serial build
// sink.
func EngineBuildJoin() func(b *testing.B) { return engineBuildJoinBody(1) }

// EngineBuildJoinParallel returns the build-dominated join with the
// radix-partitioned parallel build at the given worker count.
func EngineBuildJoinParallel(workers int) func(b *testing.B) {
	return engineBuildJoinBody(workers)
}

// engineOrderByBody is the shared body of the sort-sink benchmarks: scan
// and fully sort a 128k-row table by a wide-range Int64 key, draining
// batch-natively so the measurement is the materialize + sort, not Row
// allocation. At workers ≥ 2 OrderByInt takes the parallel merge-sort
// path (per-worker sorted runs, pairwise stable merges); at workers == 1
// it is the serial stable sort.
func engineOrderByBody(workers int) func(b *testing.B) {
	return func(b *testing.B) {
		r := stats.NewRNG(8)
		t := engine.NewTable("t", engine.Schema{{Name: "k", Type: engine.Int64},
			{Name: "v", Type: engine.Int64}})
		for i := 0; i < 131_072; i++ {
			t.MustAppend(engine.Row{engine.I(r.Int63n(1 << 40)), engine.I(int64(i))})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			meter := engine.NewMeter(engine.DefaultCostModel())
			if err := engine.Scan(t, meter).WithParallelism(workers).
				OrderByInt("k", false).
				ForEachBatch(func(*engine.Batch) error { return nil }); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// EngineOrderBy returns the full-sort body with the serial stable sort.
func EngineOrderBy() func(b *testing.B) { return engineOrderByBody(1) }

// EngineOrderByParallel returns the full-sort body with the parallel
// merge sort at the given worker count.
func EngineOrderByParallel(workers int) func(b *testing.B) {
	return engineOrderByBody(workers)
}

// benchUniverse lazily generates the default 4000-particle universe the
// halo-finder benchmarks cluster, so its (expensive) generation is paid
// once per process rather than once per measurement.
var benchUniverse = sync.OnceValues(func() (*astro.Universe, error) {
	return astro.Generate(astro.DefaultConfig())
})

// HaloFinder returns the benchmark body for friends-of-friends
// clustering of one 4000-particle snapshot. warm reuses one HaloFinder
// (grid, union-find, and component scratch retained) across iterations —
// the tracking workload's per-snapshot call pattern; fresh constructs a
// finder per call.
func HaloFinder(warm bool) func(b *testing.B) {
	return func(b *testing.B) {
		u, err := benchUniverse()
		if err != nil {
			b.Fatal(err)
		}
		f := astro.NewHaloFinder(1.8, 8)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !warm {
				f = astro.NewHaloFinder(1.8, 8)
			}
			if _, err := f.Find(u.Tables[0], nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// HaloFinderParallel returns the warm-finder clustering body with the
// candidate-pair phase running on the given worker count (see
// astro.HaloFinder.Parallelism) — the sink the pair gate holds against
// the serial warm finder. Results and meters are identical to serial;
// only the wall clock may differ.
func HaloFinderParallel(workers int) func(b *testing.B) {
	return func(b *testing.B) {
		u, err := benchUniverse()
		if err != nil {
			b.Fatal(err)
		}
		f := astro.NewHaloFinder(1.8, 8)
		f.Parallelism = workers
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.Find(u.Tables[0], nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// astroBenchUniverse lazily generates the reduced universe the workload
// benchmarks track, shared by the serial and parallel bodies so pair
// runs measure the same data.
var astroBenchUniverse = sync.OnceValues(func() (*astro.Universe, error) {
	cfg := astro.DefaultConfig()
	cfg.Particles = 1500
	cfg.Snapshots = 8
	return astro.Generate(cfg)
})

// astroWorkloadBody is the shared body of the end-to-end astronomy
// tracking benchmark: a fresh tracker clusters every snapshot of a
// reduced universe and runs one stride-1 astronomer's progenitor and
// chain queries through the engine — the workload whose metered cost
// feeds the pricing experiments. workers is the tracker's engine
// parallelism (1 = serial plans).
func astroWorkloadBody(workers int) func(b *testing.B) {
	return func(b *testing.B) {
		u, err := astroBenchUniverse()
		if err != nil {
			b.Fatal(err)
		}
		spec := astro.UserSpec{Name: "bench", Stride: 1, Halos: []int32{0, 1}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr := astro.NewTracker(u, 1.8, 8)
			tr.Parallelism = workers
			meter := engine.NewMeter(engine.DefaultCostModel())
			if err := tr.RunWorkload(spec, meter); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// AstroWorkload returns the serial end-to-end tracking workload body.
func AstroWorkload() func(b *testing.B) { return astroWorkloadBody(1) }

// AstroWorkloadParallel returns the same workload with the tracker's
// engine queries running morsel-parallel AND halo clustering's
// candidate-pair phase fanned out over the same worker count, so — with
// the partitioned build, merge sort and parallel finder — no serial sink
// bounds the end-to-end gain.
func AstroWorkloadParallel(workers int) func(b *testing.B) {
	return astroWorkloadBody(workers)
}

// Key lists the benchmarks tracked in the BENCH_*.json perf trajectory.
func Key() []struct {
	Name string
	Body func(b *testing.B)
} {
	return []struct {
		Name string
		Body func(b *testing.B)
	}{
		{"Shapley1k", Shapley(1_000)},
		{"Shapley10k", Shapley(10_000)},
		{"Shapley100k", Shapley(100_000)},
		{"AddOnGame", AddOnGame()},
		{"SubstOnGame", SubstOnGame()},
		{"AddOnSeason", AddOnSeason()},
		{"SubstOnSeason", SubstOnSeason()},
		{"ServiceGame", ServiceGame()},
		{"ShardedIngest1", ShardedIngestThroughput(1)},
		{"ShardedIngest4", ShardedIngestThroughput(4)},
		{"ShardedIngest4Obs", ShardedIngestInstrumented(4)},
		{"ShardedIngest4Net", ShardedIngestNet(4)},
		{"TierRetained", TierRetained()},
		{"TierRetainedOpen", TierRetainedOpen()},
		{"JournalAppendSeason", JournalAppendSeason()},
		{"ReadJournalSeason", ReadJournalSeason()},
		{"EngineHashJoin", EngineHashJoin()},
		{"EngineHashJoinParallel4", EngineHashJoinParallel(4)},
		{"EngineBuildJoin", EngineBuildJoin()},
		{"EngineBuildJoinParallel4", EngineBuildJoinParallel(4)},
		{"EngineOrderBy", EngineOrderBy()},
		{"EngineOrderByParallel4", EngineOrderByParallel(4)},
		{"HaloFinder", HaloFinder(false)},
		{"HaloFinderWarm", HaloFinder(true)},
		{"HaloFinderParallel4", HaloFinderParallel(4)},
		{"AstroWorkload", AstroWorkload()},
		{"AstroWorkloadParallel4", AstroWorkloadParallel(4)},
	}
}

// Regressions compares current results against a committed baseline
// snapshot's, returning one message per benchmark whose ns/op exceeds
// the baseline by more than threshold (fractional: 0.30 = 30% slower),
// or that disappeared from the current run. Benchmarks new in current
// (absent from the baseline) pass: they have no trajectory yet. An empty
// return means no regression.
func Regressions(baseline, current []Result, threshold float64) []string {
	byName := make(map[string]Result, len(current))
	for _, r := range current {
		byName[r.Name] = r
	}
	var msgs []string
	for _, base := range baseline {
		cur, ok := byName[base.Name]
		if !ok {
			msgs = append(msgs, fmt.Sprintf("%s: present in baseline but not measured", base.Name))
			continue
		}
		if base.NsPerOp <= 0 {
			continue
		}
		ratio := cur.NsPerOp / base.NsPerOp
		if ratio > 1+threshold {
			msgs = append(msgs, fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (%.0f%% slower, threshold %.0f%%)",
				base.Name, cur.NsPerOp, base.NsPerOp, (ratio-1)*100, threshold*100))
		}
	}
	return msgs
}

// ExtraDrift compares the custom-metric keys (Result.Extra) between a
// baseline snapshot and a current run, benchmark by benchmark, over the
// UNION of both key sets — so a metric a body stopped reporting is
// surfaced instead of silently vanishing from the diff. It returns the
// metrics present in the baseline but missing from the current run
// (regressions: a tracked number disappeared) and those new in the
// current run (informational: no trajectory yet), each as
// "Benchmark: unit" strings in sorted order. Benchmarks absent from
// either side are Regressions' concern, not ExtraDrift's.
func ExtraDrift(baseline, current []Result) (missing, added []string) {
	byName := make(map[string]Result, len(current))
	for _, r := range current {
		byName[r.Name] = r
	}
	for _, base := range baseline {
		cur, ok := byName[base.Name]
		if !ok {
			continue
		}
		for unit := range base.Extra {
			if _, ok := cur.Extra[unit]; !ok {
				missing = append(missing, fmt.Sprintf("%s: %s", base.Name, unit))
			}
		}
		for unit := range cur.Extra {
			if _, ok := base.Extra[unit]; !ok {
				added = append(added, fmt.Sprintf("%s: %s", base.Name, unit))
			}
		}
	}
	sort.Strings(missing)
	sort.Strings(added)
	return missing, added
}

// RunKey measures every benchmark in Key with testing.Benchmark.
func RunKey() []Result {
	var out []Result
	for _, kb := range Key() {
		r := testing.Benchmark(kb.Body)
		res := Result{
			Name:        kb.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if len(r.Extra) > 0 {
			res.Extra = make(map[string]float64, len(r.Extra))
			for unit, v := range r.Extra {
				res.Extra[unit] = v
			}
		}
		out = append(out, res)
	}
	return out
}

// Pair is one relative performance claim the CI gate holds: candidate
// must run at least MinSpeedup times faster than baseline when the
// runner has NeedProcs CPUs, or RelaxedMinSpeedup (typically a
// no-regression bound < 1) otherwise. Because both bodies run
// interleaved in the same process on the same runner, the comparison is
// self-calibrating — runner speed, turbo states and co-tenants cancel
// out, unlike an absolute ns/op diff against a snapshot from another
// machine.
type Pair struct {
	Name              string
	Baseline          func(b *testing.B)
	Candidate         func(b *testing.B)
	MinSpeedup        float64
	RelaxedMinSpeedup float64
	NeedProcs         int
}

// Pairs lists the relative claims CI enforces. The hash-join pairs carry
// the streamable-pipeline morsel parallelism; the build-join, order-by
// and halo-finder pairs carry the parallelized sinks (radix-partitioned
// hash build, merge sort, chunked pair enumeration); the astro pair
// guards the end-to-end workload — now parallel from scan through
// clustering — against the parallel path ever costing more than serial.
func Pairs() []Pair {
	return []Pair{
		{
			Name:              "EngineHashJoin/parallel4-vs-serial",
			Baseline:          EngineHashJoin(),
			Candidate:         EngineHashJoinParallel(4),
			MinSpeedup:        1.5,
			RelaxedMinSpeedup: 0.70,
			NeedProcs:         4,
		},
		{
			Name:              "EngineHashJoin/parallel2-vs-serial",
			Baseline:          EngineHashJoin(),
			Candidate:         EngineHashJoinParallel(2),
			MinSpeedup:        1.15,
			RelaxedMinSpeedup: 0.70,
			NeedProcs:         2,
		},
		{
			Name:              "EngineBuildJoin/partitioned4-vs-serial",
			Baseline:          EngineBuildJoin(),
			Candidate:         EngineBuildJoinParallel(4),
			MinSpeedup:        1.3,
			RelaxedMinSpeedup: 0.70,
			NeedProcs:         4,
		},
		{
			Name:              "EngineOrderBy/parallel4-vs-serial",
			Baseline:          EngineOrderBy(),
			Candidate:         EngineOrderByParallel(4),
			MinSpeedup:        1.2,
			RelaxedMinSpeedup: 0.70,
			NeedProcs:         4,
		},
		{
			Name:              "HaloFinder/parallel4-vs-serial",
			Baseline:          HaloFinder(true),
			Candidate:         HaloFinderParallel(4),
			MinSpeedup:        1.3,
			RelaxedMinSpeedup: 0.70,
			NeedProcs:         4,
		},
		{
			// Sharding claim: four per-shard journals must beat the
			// single-journal durable tier on concurrent intake, because
			// submitters serialize only per shard while settlement work
			// is identical on both sides. The relaxed bound still forbids
			// sharding from costing more than ~1.4x on small runners.
			Name:              "ShardedIngest/sharded4-vs-single",
			Baseline:          ShardedIngestThroughput(1),
			Candidate:         ShardedIngestThroughput(4),
			MinSpeedup:        1.3,
			RelaxedMinSpeedup: 0.70,
			NeedProcs:         4,
		},
		{
			// Export tax bound: the 4-shard tier with a registry attached
			// must run at ≥0.70x the bare tier's speed. The bare tier
			// counts its outcomes too (they are its accounting), so the
			// pair measures what export adds: the latency histograms, the
			// batch high-water gauge and the timed journal writes. Runner
			// CPU count does not change the claim, so full == relaxed.
			Name:              "ShardedIngest4/obs-vs-bare",
			Baseline:          ShardedIngestThroughput(4),
			Candidate:         ShardedIngestInstrumented(4),
			MinSpeedup:        0.70,
			RelaxedMinSpeedup: 0.70,
			NeedProcs:         1,
		},
		{
			// Network-boundary tax bound: the 4-shard tier with every
			// shard behind the length-prefixed TCP transport (loopback
			// sockets, link setup off-timer) must sustain at least half
			// the in-process tier's intake rate on a multi-core runner —
			// JSON framing, group-commit socket writes and reply routing
			// together may at most double the cost of the hot path. On
			// starved runners socket scheduling dominates, so the relaxed
			// bound only requires the TCP tier to function at all.
			Name:              "ShardedIngest4Net/tcp-vs-loopback",
			Baseline:          ShardedIngestThroughput(4),
			Candidate:         ShardedIngestNet(4),
			MinSpeedup:        0.50,
			RelaxedMinSpeedup: 0.02,
			NeedProcs:         4,
		},
		{
			Name:              "AstroWorkload/parallel4-vs-serial",
			Baseline:          AstroWorkload(),
			Candidate:         AstroWorkloadParallel(4),
			MinSpeedup:        0.95,
			RelaxedMinSpeedup: 0.70,
			NeedProcs:         4,
		},
	}
}

// PairResult is one pair's measured outcome, shaped for JSON.
type PairResult struct {
	Name            string  `json:"name"`
	Rounds          int     `json:"rounds"`
	BaselineNsPerOp float64 `json:"baseline_ns_per_op"`
	CandidateNs     float64 `json:"candidate_ns_per_op"`
	Speedup         float64 `json:"speedup"`
	RequiredSpeedup float64 `json:"required_speedup"`
	// FullGate reports whether the runner had enough CPUs to enforce
	// the pair's full MinSpeedup (false = RelaxedMinSpeedup applied).
	FullGate bool `json:"full_gate"`
	Pass     bool `json:"pass"`
}

// median returns the median of ns (sorted in place).
func median(ns []float64) float64 {
	sort.Float64s(ns)
	n := len(ns)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return ns[n/2]
	}
	return (ns[n/2-1] + ns[n/2]) / 2
}

// nsPerOp extracts a benchmark run's ns/op.
func nsPerOp(r testing.BenchmarkResult) float64 {
	if r.N == 0 {
		return 0
	}
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// RunPairs measures every pair with `rounds` interleaved
// baseline/candidate runs (baseline, candidate, baseline, candidate, …)
// in this process and compares the medians, so transient machine noise
// hits both sides alike. procs chooses between the full and relaxed
// speedup requirements; pass runtime.GOMAXPROCS(0), which bounds the
// parallelism the candidate bodies can actually use (NumCPU can exceed
// it under cgroup CPU quotas).
func RunPairs(pairs []Pair, rounds, procs int) []PairResult {
	if rounds < 1 {
		rounds = 1
	}
	var out []PairResult
	for _, p := range pairs {
		baseNs := make([]float64, 0, rounds)
		candNs := make([]float64, 0, rounds)
		for r := 0; r < rounds; r++ {
			baseNs = append(baseNs, nsPerOp(testing.Benchmark(p.Baseline)))
			candNs = append(candNs, nsPerOp(testing.Benchmark(p.Candidate)))
		}
		bm, cm := median(baseNs), median(candNs)
		full := procs >= p.NeedProcs
		required := p.MinSpeedup
		if !full {
			required = p.RelaxedMinSpeedup
		}
		speedup := 0.0
		if cm > 0 {
			speedup = bm / cm
		}
		out = append(out, PairResult{
			Name:            p.Name,
			Rounds:          rounds,
			BaselineNsPerOp: bm,
			CandidateNs:     cm,
			Speedup:         speedup,
			RequiredSpeedup: required,
			FullGate:        full,
			Pass:            speedup >= required,
		})
	}
	return out
}
