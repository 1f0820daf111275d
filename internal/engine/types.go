// Package engine is a small in-memory relational query engine with typed
// columnar tables, hash indexes, hash joins, grouped aggregation,
// materialized views, and a cost meter that converts the rows an
// execution touches into simulated query time.
//
// It exists because the paper's motivating use-case (Section 2) runs real
// halo-tracking queries over universe-simulation snapshots, sped up by
// materialized (particleID, haloID) views. internal/astro builds that
// workload on this engine; the per-optimization savings the pricing
// mechanisms consume are derived from the meter's work counts, so the
// "optimizations" being priced are real query-plan changes rather than
// hard-coded constants.
//
// # Execution model
//
// Queries execute batch-at-a-time: a Batch of column vectors plus an
// optional selection vector flows through Scan → FilterIntEq → Project →
// HashJoin/IndexJoin → GroupCount/OrderByInt, and is drained by Rows,
// ForEachBatch or Top1, so the hot loops run over typed slices instead
// of materializing a Row per operator per row. These are
// the operators internal/astro's halo tracking and the pricing loop run.
// Scans are zero-copy views of table storage; filters narrow the
// selection vector; projection reorders vector references; the hash join
// probes an open-addressing int64 → row-positions table and gathers
// output columns straight from the build side's vectors. Query.Rows
// materializes one exact-size Row per output row; hot callers use
// Query.ForEachBatch, and Query.Top1 materializes only the winning row.
//
// # Parallel execution
//
// Query.WithParallelism(n) opts a query into morsel-driven parallelism
// (Leis et al., SIGMOD 2014; see parallel.go): the scan is split into
// fixed-size morsels claimed by n workers, each running a private copy
// of the streamable pipeline (FilterIntEq, Project, join probes);
// pipeline breakers — hash build, GroupCount, Top1, OrderByInt,
// Rows/ForEachBatch — merge the per-morsel partials deterministically.
// n = 1 (the default) keeps the serial path, so existing callers and
// every committed figure CSV are untouched.
//
// The architecture is morsels → partitioned sinks → deterministic
// merges: after the streamable phases fan out, the pipeline breakers
// themselves also run parallel rather than funneling into one thread.
// Large hash-join builds are radix-partitioned by a prefix of the key
// hash — per-partition tables built concurrently, rows inserted in
// global (morsel, row) coordinate order so every per-key chain is
// threaded in serial build order, probes routed by the same prefix
// (buildPartitioned). OrderByInt sorts per-worker runs concurrently and
// merges them pairwise with a key-then-coordinate comparator — a total
// order equal to the serial stable sort (parallelSortPerm). Top1 and
// GroupCount reduce per-worker partials by coordinate.
// The same recipe extends past the engine: astro.HaloFinder fans its
// candidate-pair phase over contiguous particle-id chunks and replays
// passing pairs through its union-find in serial pair order.
//
// # Metering contract
//
// Batch execution never changes what a query is charged. The unit counts
// — one scan per row a Scan produces, one build per row entering a hash
// build or aggregation, one probe per probe-side row reaching a join,
// one emit per row leaving Rows/ForEachBatch/Top1 — are identical,
// charge point by charge point, to the row-at-a-time Volcano executor
// the tests keep as a reference (rowref_test.go). The property tests
// assert byte-identical rows and identical Meter counts between the two
// executors on randomized inputs.
//
// Parallel execution preserves the contract exactly, at every worker
// count:
//
//   - Each worker charges a private Meter at the same charge points the
//     serial operators use; the worker meters are folded into the
//     query's meter with Meter.Add at the pipeline breaker. Since every
//     row flows through exactly one worker's pipeline, the folded
//     totals equal the serial totals.
//   - Hash-join build sides are drained in parallel and merged in
//     morsel order before the hash table is populated — sequentially
//     for small builds, radix-partitioned across workers for large ones
//     — so per-key probe chains are threaded in serial build order and
//     probe output is byte-identical either way.
//   - Order-sensitive sinks merge worker partials by first-occurrence
//     coordinate (morsel index, row within morsel), reproducing serial
//     first-seen group order, Top1 tie-breaks and sort stability.
//
// The pricing mechanisms bill on these meter counts, so the guarantee
// is load-bearing: a provider can scale metered execution across cores
// without perturbing a single price.
package engine

import "fmt"

// ColType is the type of a column.
type ColType int

const (
	// Int64 is a 64-bit integer column.
	Int64 ColType = iota
	// Float64 is a 64-bit floating-point column.
	Float64
	// String is a variable-length string column.
	String
)

// String returns the type's name.
func (t ColType) String() string {
	switch t {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case String:
		return "string"
	default:
		return fmt.Sprintf("ColType(%d)", int(t))
	}
}

// Column describes one column of a schema.
type Column struct {
	Name string
	Type ColType
}

// Schema is an ordered list of columns.
type Schema []Column

// ColIndex returns the position of the named column, or -1.
func (s Schema) ColIndex(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Validate reports an error on empty names or duplicates.
func (s Schema) Validate() error {
	seen := make(map[string]bool, len(s))
	for _, c := range s {
		if c.Name == "" {
			return fmt.Errorf("engine: empty column name")
		}
		if seen[c.Name] {
			return fmt.Errorf("engine: duplicate column %q", c.Name)
		}
		seen[c.Name] = true
	}
	return nil
}

// Datum is one typed value. Exactly the field matching Kind is meaningful.
type Datum struct {
	Kind  ColType
	Int   int64
	Float float64
	Str   string
}

// I returns an Int64 datum.
func I(v int64) Datum { return Datum{Kind: Int64, Int: v} }

// F returns a Float64 datum.
func F(v float64) Datum { return Datum{Kind: Float64, Float: v} }

// S returns a String datum.
func S(v string) Datum { return Datum{Kind: String, Str: v} }

// Equal reports whether two datums have the same type and value.
func (d Datum) Equal(o Datum) bool {
	if d.Kind != o.Kind {
		return false
	}
	switch d.Kind {
	case Int64:
		return d.Int == o.Int
	case Float64:
		return d.Float == o.Float
	default:
		return d.Str == o.Str
	}
}

// String renders the datum's value.
func (d Datum) String() string {
	switch d.Kind {
	case Int64:
		return fmt.Sprintf("%d", d.Int)
	case Float64:
		return fmt.Sprintf("%g", d.Float)
	default:
		return d.Str
	}
}

// Row is one tuple, positionally aligned with a Schema.
type Row []Datum
