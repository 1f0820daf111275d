// Package obs is the deterministic, allocation-light metrics substrate
// for the serving tier: atomic counters, high-water gauges, fixed-bucket
// latency histograms with stats.Percentile-compatible quantiles, and
// registry snapshot/diff/JSON export. internal/resilience threads it
// through the durable tier (see that package's obs.go for the metric
// name contract) and cmd/pricer's -load mode reads it to measure what
// the tier sustains; docs/metrics.md is the operator-facing table of
// every emitted metric, its unit, and its emitting layer.
//
// # Design rules
//
//   - Hot-path writes are lock-free and allocation-free: Counter.Inc and
//     Histogram.Observe are a handful of atomic operations (the
//     histogram's bucket search is a binary search over a fixed bound
//     slice). Registry lookups lock, so components resolve their metric
//     objects once, at construction.
//   - Every metric method is safe on a nil receiver (writes no-op, reads
//     return zero), and a nil *Registry hands out nil metrics. Disabled
//     instrumentation therefore needs no branches at the call sites and
//     costs one predicted nil check.
//   - Counting is exact, never sampled: the tier's counters are its
//     accounting (every attempt at a submission that is not an
//     acknowledged duplicate lands in exactly one of accepted,
//     rejected, overloaded, read-only, or unavailable), and
//     tiercheck.Accounting reconciles them against independent
//     client-side tallies to the last bid.
//   - Latency histograms observe wall-clock nanoseconds into fixed
//     buckets (DefaultLatencyBounds: a 1-2-5 ladder, 1µs to 10s, plus
//     overflow). Counts and per-bucket sums are exact; only the *shape*
//     within a bucket is compressed. Quantile applies the same R-7 rank
//     definition as stats.Percentile (via stats.PercentileRank) over the
//     bucket counts, resolving sub-bucket ranks to the bucket's exact
//     mean — so p0/min, p100/max are always exact, and any quantile
//     whose rank lands in a uniformly-valued bucket (e.g. a single
//     observation, or values on bucket bounds) is exact too.
//   - A Registry.Sum is a counter derived at snapshot time from the part
//     values the same snapshot read, so an aggregate equals the sum of
//     its parts in every snapshot, however the parts move meanwhile.
//   - Snapshots are plain data. Snapshot.Diff subtracts two snapshots
//     into a window view (counters and bucket counts/sums are rates;
//     gauges and min/max are lifetime extremes and carry through), and
//     encoding/json marshals snapshots with sorted keys, so exports of
//     quiesced registries are byte-stable.
//
// Instrumentation must never perturb the system it observes: wrapping a
// journal target in TimedWriter passes bytes through untouched, and the
// resilience tier's obs tests prove journal bytes, invoices, and figure
// inputs are identical with observability on and off.
package obs
