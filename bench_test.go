package sharedopt_test

// One benchmark per figure of the paper's evaluation section (Section 7),
// each regenerating the figure's full series at a reduced trial count,
// plus micro-benchmarks for the mechanisms and the query-engine
// substrate. Regenerate the paper-scale numbers with cmd/experiments.

import (
	"testing"

	"sharedopt/internal/benchkit"
	"sharedopt/internal/core"
	"sharedopt/internal/experiments"
	"sharedopt/internal/workload"
)

// benchTrials keeps one benchmark iteration meaningful (full sweep,
// averaged) without making -bench runs take minutes.
const benchTrials = 20

func benchFigure(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, benchTrials, 42); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1Astronomy regenerates Figure 1: the astronomy use-case's
// utility and balance versus workload executions.
func BenchmarkFig1Astronomy(b *testing.B) { benchFigure(b, "1") }

// BenchmarkFig2aAdditiveSmall regenerates Figure 2(a): additive
// optimization, 6-user collaboration, cost sweep.
func BenchmarkFig2aAdditiveSmall(b *testing.B) { benchFigure(b, "2a") }

// BenchmarkFig2bAdditiveLarge regenerates Figure 2(b): additive, 24 users.
func BenchmarkFig2bAdditiveLarge(b *testing.B) { benchFigure(b, "2b") }

// BenchmarkFig2cSubstSmall regenerates Figure 2(c): substitutive, 6 users.
func BenchmarkFig2cSubstSmall(b *testing.B) { benchFigure(b, "2c") }

// BenchmarkFig2dSubstLarge regenerates Figure 2(d): substitutive, 24 users.
func BenchmarkFig2dSubstLarge(b *testing.B) { benchFigure(b, "2d") }

// BenchmarkFig3aSingleSlot regenerates Figure 3(a): AddOn's advantage as
// the slot count shrinks.
func BenchmarkFig3aSingleSlot(b *testing.B) { benchFigure(b, "3a") }

// BenchmarkFig3bMultiSlot regenerates Figure 3(b): AddOn's advantage as
// bids stretch over more slots.
func BenchmarkFig3bMultiSlot(b *testing.B) { benchFigure(b, "3b") }

// BenchmarkFig4ArrivalSkew regenerates Figure 4: utility ratios under
// uniform, early and late arrivals.
func BenchmarkFig4ArrivalSkew(b *testing.B) { benchFigure(b, "4") }

// BenchmarkFig5aLowSelectivity regenerates Figure 5(a): 3 substitutes of 4.
func BenchmarkFig5aLowSelectivity(b *testing.B) { benchFigure(b, "5a") }

// BenchmarkFig5bHighSelectivity regenerates Figure 5(b): 3 substitutes of 12.
func BenchmarkFig5bHighSelectivity(b *testing.B) { benchFigure(b, "5b") }

// BenchmarkAblationE1Efficiency regenerates ablation E1: AddOn vs the
// hindsight-optimal utility bound.
func BenchmarkAblationE1Efficiency(b *testing.B) { benchFigure(b, "E1") }

// BenchmarkAblationE2EfficiencySubst regenerates ablation E2: SubstOn vs
// the exact subset-enumeration optimum.
func BenchmarkAblationE2EfficiencySubst(b *testing.B) { benchFigure(b, "E2") }

// BenchmarkAblationE3NaiveGaming regenerates ablation E3: the naive
// online strawman vs AddOn under value hiding.
func BenchmarkAblationE3NaiveGaming(b *testing.B) { benchFigure(b, "E3") }

// The mechanism micro-benchmarks delegate to internal/benchkit so that
// cmd/benchjson measures exactly the same bodies when emitting the
// BENCH_*.json perf snapshots. All of them report allocations; the sorted-
// prefix Shapley rewrite is held to O(1) allocs per call by the regression
// tests in internal/core/alloc_test.go.

// BenchmarkShapley measures one Shapley Value Mechanism run over 1000
// bidders — the inner loop of every mechanism.
func BenchmarkShapley(b *testing.B) { benchkit.Shapley(1_000)(b) }

// BenchmarkShapley10k scales the Shapley benchmark to 10k bidders.
func BenchmarkShapley10k(b *testing.B) { benchkit.Shapley(10_000)(b) }

// BenchmarkShapley100k scales the Shapley benchmark to 100k bidders.
func BenchmarkShapley100k(b *testing.B) { benchkit.Shapley(100_000)(b) }

// BenchmarkAddOnGame measures a complete 12-slot AddOn game with 24
// users — one Figure 2(b) trial.
func BenchmarkAddOnGame(b *testing.B) { benchkit.AddOnGame()(b) }

// BenchmarkSubstOnGame measures a complete 12-slot SubstOn game with 24
// users over 12 optimizations — one Figure 2(d) trial.
func BenchmarkSubstOnGame(b *testing.B) { benchkit.SubstOnGame()(b) }

// BenchmarkAddOnSeason measures one season-shaped additive game: 200
// slots of 48 arrivals each over 12 optimizations.
func BenchmarkAddOnSeason(b *testing.B) { benchkit.AddOnSeason()(b) }

// BenchmarkSubstOnSeason measures one season-shaped SubstOn game: 200
// slots of 48 arrivals each, every bid naming 3 of 12 substitutes.
func BenchmarkSubstOnSeason(b *testing.B) { benchkit.SubstOnSeason()(b) }

// BenchmarkServiceGame measures one complete 12-slot, 48-user additive
// pricing period through the plain in-memory service layer.
func BenchmarkServiceGame(b *testing.B) { benchkit.ServiceGame()(b) }

// BenchmarkShardedIngest1 measures sustained concurrent intake through
// the sharded durable tier with a single shard — the baseline of the
// sharded4-vs-single pair gate. Reports bids/s and p99 slot-advance
// latency alongside ns/op.
func BenchmarkShardedIngest1(b *testing.B) { benchkit.ShardedIngestThroughput(1)(b) }

// BenchmarkShardedIngest4 measures the same workload over four shards,
// each journaling independently.
func BenchmarkShardedIngest4(b *testing.B) { benchkit.ShardedIngestThroughput(4)(b) }

// BenchmarkShardedIngest4Obs is the four-shard body with a live
// obs.Registry attached — the candidate of the obs-vs-bare pair gate
// bounding the metrics layer's hot-path cost.
func BenchmarkShardedIngest4Obs(b *testing.B) { benchkit.ShardedIngestInstrumented(4)(b) }

// BenchmarkTierRetained settles 50 spot-shaped 4-shard periods and
// reports the heap the settled tiers keep per bid ("retained-B/bid").
func BenchmarkTierRetained(b *testing.B) { benchkit.TierRetained()(b) }

// BenchmarkTierRetainedOpen plays 200 slots of a 400-slot season-shaped
// 4-shard period and reports the heap the open tier keeps per user
// ("retained-B/user").
func BenchmarkTierRetainedOpen(b *testing.B) { benchkit.TierRetainedOpen()(b) }

// BenchmarkEngineHashJoin measures a 10k × 10k hash join plus grouped
// count through the columnar query engine.
func BenchmarkEngineHashJoin(b *testing.B) { benchkit.EngineHashJoin()(b) }

// BenchmarkEngineHashJoinParallel2 measures the same pipeline executed
// morsel-parallel with 2 workers (see engine.Query.WithParallelism).
func BenchmarkEngineHashJoinParallel2(b *testing.B) { benchkit.EngineHashJoinParallel(2)(b) }

// BenchmarkEngineHashJoinParallel4 measures the same pipeline with 4
// workers — the configuration the relative-pair CI gate holds ≥1.5x
// over the serial body on multi-core runners.
func BenchmarkEngineHashJoinParallel4(b *testing.B) { benchkit.EngineHashJoinParallel(4)(b) }

// BenchmarkEngineBuildJoin measures a build-dominated join (2k probe ×
// 64k build rows) with the serial hash-build sink.
func BenchmarkEngineBuildJoin(b *testing.B) { benchkit.EngineBuildJoin()(b) }

// BenchmarkEngineBuildJoinParallel4 measures the same join with the
// radix-partitioned parallel build at 4 workers — the configuration the
// relative-pair CI gate holds ≥1.3x over the serial sink on multi-core
// runners.
func BenchmarkEngineBuildJoinParallel4(b *testing.B) { benchkit.EngineBuildJoinParallel(4)(b) }

// BenchmarkEngineOrderBy measures a full 128k-row sort with the serial
// stable sort.
func BenchmarkEngineOrderBy(b *testing.B) { benchkit.EngineOrderBy()(b) }

// BenchmarkEngineOrderByParallel4 measures the same sort with the
// parallel merge sort (per-worker sorted runs, pairwise stable merges)
// at 4 workers.
func BenchmarkEngineOrderByParallel4(b *testing.B) { benchkit.EngineOrderByParallel(4)(b) }

// BenchmarkHaloFinder measures friends-of-friends clustering of one
// 4000-particle snapshot with a freshly constructed finder per call.
func BenchmarkHaloFinder(b *testing.B) { benchkit.HaloFinder(false)(b) }

// BenchmarkHaloFinderWarm measures the same clustering with one reused
// HaloFinder — the tracking workload's per-snapshot call pattern, where
// the grid, union-find, and component scratch persist.
func BenchmarkHaloFinderWarm(b *testing.B) { benchkit.HaloFinder(true)(b) }

// BenchmarkHaloFinderParallel4 measures warm clustering with the
// candidate-pair phase on 4 workers — deterministically identical
// output, gated ≥1.3x over the serial warm finder on multi-core runners.
func BenchmarkHaloFinderParallel4(b *testing.B) { benchkit.HaloFinderParallel(4)(b) }

// BenchmarkAstroWorkload measures one end-to-end astronomy tracking
// workload (fresh tracker, every snapshot clustered, stride-1 progenitor
// and chain queries) on a reduced universe.
func BenchmarkAstroWorkload(b *testing.B) { benchkit.AstroWorkload()(b) }

// BenchmarkAstroWorkloadParallel4 measures the same workload with the
// tracker's engine queries AND halo clustering running parallel at 4
// workers, end to end.
func BenchmarkAstroWorkloadParallel4(b *testing.B) { benchkit.AstroWorkloadParallel(4)(b) }

// BenchmarkAstronomyScenario measures pricing one full astronomy-year
// scenario (27 views, 4 quarters, 6 users) with AddOn.
func BenchmarkAstronomyScenario(b *testing.B) {
	spans := [workload.AstroUsers]workload.QuarterSpan{
		{Start: 1, Len: 4}, {Start: 1, Len: 2}, {Start: 3, Len: 2},
		{Start: 2, Len: 3}, {Start: 2, Len: 1}, {Start: 4, Len: 1},
	}
	sc := workload.Astronomy(spans, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		game := core.NewAdditiveGame(sc.Opts)
		for _, bid := range sc.Bids {
			if err := game.Submit(bid.Opt, core.OnlineBid{User: bid.User,
				Start: bid.Start, End: bid.End, Values: bid.Values}); err != nil {
				b.Fatal(err)
			}
		}
		for t := core.Slot(1); t <= sc.Horizon; t++ {
			game.AdvanceSlot()
		}
		game.Close()
	}
}
