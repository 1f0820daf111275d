package engine

import (
	"fmt"
	"runtime"
	"sort"
)

// Query is a fluent builder over columnar batch operators (see batch.go).
// Scan starts a query; FilterIntEq, Project, HashJoin and IndexJoin
// stream; GroupCount and OrderByInt materialize; Rows, ForEachBatch and
// Top1 drain it. Construction errors are carried along and surfaced by
// the drain, so call chains stay linear. The tests hold every operator
// to a row-at-a-time reference executor (rowref_test.go).
type Query struct {
	it    batchIterator
	meter *Meter
	err   error

	// par is the worker count WithParallelism selected (<2 = serial);
	// spec is the replayable morsel pipeline the workers execute, kept
	// alongside the serial iterator chain while the pipeline remains
	// streamable (see parallel.go).
	par  int
	spec *pipeSpec
}

// Scan starts a query with a sequential scan of a table, charging one
// scan unit per row read. Batches are zero-copy views of the table's
// column storage.
func Scan(t *Table, meter *Meter) *Query {
	return &Query{
		it:    &batchScan{t: t, meter: meter, end: t.Len()},
		meter: meter,
		par:   1,
		spec:  &pipeSpec{table: t},
	}
}

// WithParallelism selects morsel-driven parallel execution with n
// workers for the query's pipeline breakers (n <= 0 means GOMAXPROCS;
// n == 1, the default, keeps the serial path). Output rows and Meter
// counts are byte-identical to serial execution at any n — see
// parallel.go for the determinism contract.
func (q *Query) WithParallelism(n int) *Query {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	q.par = n
	return q
}

// FilterIntEq keeps rows whose Int64 column equals v. It runs columnar:
// the comparison reads the int64 vector directly and narrows the
// selection vector, with no per-row materialization.
func (q *Query) FilterIntEq(col string, v int64) *Query {
	if q.err != nil {
		return q
	}
	i := q.it.Schema().ColIndex(col)
	if i < 0 || q.it.Schema()[i].Type != Int64 {
		q.err = fmt.Errorf("engine: filter: bad column %q", col)
		return q
	}
	q.it = &batchFilter{in: q.it, col: i, val: v}
	q.addStage(pipeStage{kind: stageFilterIntEq, col: i, val: v})
	return q
}

// Project keeps only the named columns, in the given order. Projection
// only reorders vector references — it costs nothing per row.
func (q *Query) Project(cols ...string) *Query {
	if q.err != nil {
		return q
	}
	in := q.it.Schema()
	idx := make([]int, len(cols))
	out := make(Schema, len(cols))
	for k, c := range cols {
		i := in.ColIndex(c)
		if i < 0 {
			q.err = fmt.Errorf("engine: project: no column %q", c)
			return q
		}
		idx[k] = i
		out[k] = in[i]
	}
	q.it = &batchProject{in: q.it, idx: idx, schema: out}
	q.addStage(pipeStage{kind: stageProject, idx: idx, schema: out})
	return q
}

// joinSchema builds the output schema of a join: probe columns followed
// by build columns, with build names prefixed when they collide.
func joinSchema(probe, build Schema) Schema {
	out := append(Schema{}, probe...)
	probeNames := make(map[string]bool, len(out))
	for _, c := range out {
		probeNames[c.Name] = true
	}
	for _, c := range build {
		name := c.Name
		if probeNames[name] {
			name = "b." + name
		}
		out = append(out, Column{Name: name, Type: c.Type})
	}
	return out
}

// HashJoin equi-joins the query (probe side) with a fully materialized
// build side on Int64 columns: build one open-addressing hash table over
// build's rows (charging build units), then probe it once per probe-side
// row (charging probe units). The probe loop reads the build table's
// columns directly — no Row is materialized per probe. The output schema
// is probe's columns followed by build's, with build column names
// prefixed when they collide. Each side's WithParallelism setting
// governs its own pipeline: the build side drains morsel-parallel only
// if the build query opted in, and the probe side's setting applies at
// this query's eventual pipeline breaker.
func (q *Query) HashJoin(build *Query, probeCol, buildCol string) *Query {
	if q.err != nil {
		return q
	}
	if build.err != nil {
		q.err = build.err
		return q
	}
	pi := q.it.Schema().ColIndex(probeCol)
	if pi < 0 || q.it.Schema()[pi].Type != Int64 {
		q.err = fmt.Errorf("engine: hash join: bad probe column %q", probeCol)
		return q
	}
	bSchema := build.it.Schema()
	bi := bSchema.ColIndex(buildCol)
	if bi < 0 || bSchema[bi].Type != Int64 {
		q.err = fmt.Errorf("engine: hash join: bad build column %q", buildCol)
		return q
	}
	// Drain the build side morsel-parallel only when the build query
	// itself opted in: its own WithParallelism governs its pipeline. The
	// hash table is populated from the rows merged in morsel order, so
	// probe chains are threaded in exactly serial build order. Charges
	// split as in serial: the build pipeline's scan/probe units go to the
	// build query's meter, the per-row build units to this query's meter.
	var bs *buildSide
	if spec, par := build.parallelPlan(); spec != nil {
		bs = materializeBuildParallel(spec, par, bi, build.meter, q.meter, bSchema)
		build.markDrained()
	} else {
		bs = materializeBuild(build.it, bi, q.meter)
	}
	out := joinSchema(q.it.Schema(), bSchema)
	q.it = &batchHashJoin{
		in:       q.it,
		build:    bs,
		probeIdx: pi,
		schema:   out,
		meter:    q.meter,
		pending:  -1,
	}
	q.addStage(pipeStage{kind: stageHashJoin, build: bs, probeIdx: pi, schema: out})
	return q
}

// IndexJoin joins the query with an indexed table: for each input row it
// probes the hash index on the row's Int64 column value and emits the
// concatenation with each matching table row. Unlike HashJoin, the build
// cost was paid when the index was created (typically alongside a
// materialized view), so queries pay probes only — that asymmetry is the
// optimization being priced.
func (q *Query) IndexJoin(idx *HashIndex, probeCol string) *Query {
	if q.err != nil {
		return q
	}
	pi := q.it.Schema().ColIndex(probeCol)
	if pi < 0 || q.it.Schema()[pi].Type != Int64 {
		q.err = fmt.Errorf("engine: index join: bad probe column %q", probeCol)
		return q
	}
	out := joinSchema(q.it.Schema(), idx.Table().Schema())
	q.it = &batchIndexJoin{
		in:       q.it,
		idx:      idx,
		probeIdx: pi,
		schema:   out,
		meter:    q.meter,
	}
	q.addStage(pipeStage{kind: stageIndexJoin, hidx: idx, probeIdx: pi, schema: out})
	return q
}

// GroupCount groups by an Int64 column and counts rows per group. The
// output schema is (col, "count"), both Int64, in first-seen group
// order. Each input row charges one build unit (hash aggregation).
func (q *Query) GroupCount(col string) *Query {
	if q.err != nil {
		return q
	}
	i := q.it.Schema().ColIndex(col)
	if i < 0 || q.it.Schema()[i].Type != Int64 {
		q.err = fmt.Errorf("engine: group count: bad column %q", col)
		return q
	}
	var keys, counts []int64
	if spec, par := q.parallelPlan(); spec != nil {
		keys, counts = parallelGroupCount(spec, par, q.meter, i)
	} else {
		slots := make(map[int64]int)
		for {
			b := q.it.nextBatch()
			if b == nil {
				break
			}
			vec := b.cols[i].Ints
			b.forEachActive(func(pos int) {
				k := vec[pos]
				s, seen := slots[k]
				if !seen {
					s = len(keys)
					slots[k] = s
					keys = append(keys, k)
					counts = append(counts, 0)
				}
				counts[s]++
			})
			if q.meter != nil {
				q.meter.RowsBuilt += int64(b.Len())
			}
		}
	}
	name := q.it.Schema()[i].Name
	q.it = &batchSlice{
		cols: []Vector{
			{Kind: Int64, Ints: keys},
			{Kind: Int64, Ints: counts},
		},
		rows:   len(keys),
		schema: Schema{{Name: name, Type: Int64}, {Name: "count", Type: Int64}},
	}
	q.spec = nil
	return q
}

// markDrained replaces the query's plan with an exhausted iterator, so a
// second drain of a parallel query behaves exactly like a second drain
// of serial iterators: empty result, zero meter charges.
func (q *Query) markDrained() {
	q.it = &batchSlice{schema: q.it.Schema()}
	q.spec = nil
}

// Top1 drains the query and returns the single row with the largest
// Int64 value in the named column (ties: first seen), or ok=false when
// the query is empty. Only the winning row is materialized, and it is
// charged as one emitted row: the same counts as keeping that row with a
// row-at-a-time top-1 operator and draining it with Rows.
func (q *Query) Top1(col string) (Row, bool, error) {
	if q.err != nil {
		return nil, false, q.err
	}
	schema := q.it.Schema()
	i := schema.ColIndex(col)
	if i < 0 || schema[i].Type != Int64 {
		return nil, false, fmt.Errorf("engine: top1: bad column %q", col)
	}
	var row Row
	found := false
	if spec, par := q.parallelPlan(); spec != nil {
		row, found = parallelTop1(spec, par, q.meter, len(schema), i)
		q.markDrained()
	} else {
		row = make(Row, len(schema))
		var bestVal int64
		for {
			b := q.it.nextBatch()
			if b == nil {
				break
			}
			vec := b.cols[i].Ints
			b.forEachActive(func(pos int) {
				if v := vec[pos]; !found || v > bestVal {
					found, bestVal = true, v
					for c := range row {
						row[c] = b.cols[c].datum(pos)
					}
				}
			})
		}
	}
	if !found {
		return nil, false, nil
	}
	if q.meter != nil {
		q.meter.RowsEmitted++
	}
	return row, true, nil
}

// OrderByInt sorts (materializing) by an Int64 column, ascending or
// descending. The sort is stable, preserving input order among equal
// keys.
func (q *Query) OrderByInt(col string, desc bool) *Query {
	if q.err != nil {
		return q
	}
	schema := q.it.Schema()
	i := schema.ColIndex(col)
	if i < 0 || schema[i].Type != Int64 {
		q.err = fmt.Errorf("engine: order by: bad column %q", col)
		return q
	}
	var flat []Vector
	rows := 0
	var perm []int
	if spec, par := q.parallelPlan(); spec != nil {
		// The per-morsel outputs are merged in morsel order, so the flat
		// row index order IS serial input order; the parallel merge sort's
		// index tiebreak therefore reproduces the serial stable sort
		// exactly (see parallelSortPerm).
		flat, rows = materializeParallel(spec, par, q.meter, schema)
		perm = parallelSortPerm(flat[i].Ints, rows, par, desc)
	} else {
		flat = make([]Vector, len(schema))
		for c := range flat {
			flat[c].Kind = schema[c].Type
		}
		for {
			b := q.it.nextBatch()
			if b == nil {
				break
			}
			b.forEachActive(func(pos int) {
				for c := range flat {
					appendValue(&flat[c], &b.cols[c], pos)
				}
				rows++
			})
		}
		perm = make([]int, rows)
		for p := range perm {
			perm[p] = p
		}
		key := flat[i].Ints
		sort.SliceStable(perm, func(a, b int) bool {
			if desc {
				return key[perm[a]] > key[perm[b]]
			}
			return key[perm[a]] < key[perm[b]]
		})
	}
	sorted := make([]Vector, len(schema))
	for c := range sorted {
		sorted[c].Kind = schema[c].Type
		for _, p := range perm {
			appendValue(&sorted[c], &flat[c], p)
		}
	}
	q.it = &batchSlice{cols: sorted, rows: rows, schema: schema}
	q.spec = nil
	return q
}

// Rows drains the query, charging one emit unit per output row, and
// returns all rows or the first construction error. This is the
// row-at-a-time compatibility shim over batch execution: each output row
// is materialized exactly once, at exact size, with row storage allocated
// one batch at a time.
func (q *Query) Rows() ([]Row, error) {
	if q.err != nil {
		return nil, q.err
	}
	width := len(q.it.Schema())
	if spec, par := q.parallelPlan(); spec != nil {
		cols, rows := materializeParallel(spec, par, q.meter, q.it.Schema())
		q.markDrained()
		if rows == 0 {
			return nil, nil
		}
		backing := make([]Datum, rows*width)
		out := make([]Row, 0, rows)
		for r := 0; r < rows; r++ {
			row := backing[r*width : (r+1)*width : (r+1)*width]
			for c := range cols {
				row[c] = cols[c].datum(r)
			}
			out = append(out, row)
		}
		if q.meter != nil {
			q.meter.RowsEmitted += int64(rows)
		}
		return out, nil
	}
	var out []Row
	for {
		b := q.it.nextBatch()
		if b == nil {
			break
		}
		n := b.Len()
		backing := make([]Datum, n*width)
		k := 0
		b.forEachActive(func(pos int) {
			row := backing[k*width : (k+1)*width : (k+1)*width]
			for c := range b.cols {
				row[c] = b.cols[c].datum(pos)
			}
			out = append(out, row)
			k++
		})
		if q.meter != nil {
			q.meter.RowsEmitted += int64(n)
		}
	}
	return out, nil
}

// ForEachBatch drains the query batch-at-a-time, charging one emit unit
// per output row — the batch-native alternative to Rows for hot callers.
// The batch passed to fn is valid only for the duration of the call. An
// error from fn ends the drain and is returned. A serial query has then
// metered only the upstream work behind the batches it delivered; a
// parallel query runs and meters its whole pipeline before fn first
// sees a batch.
func (q *Query) ForEachBatch(fn func(*Batch) error) error {
	if q.err != nil {
		return q.err
	}
	it := q.it
	if spec, par := q.parallelPlan(); spec != nil {
		// The whole result set is merged before the first callback: a
		// parallel ForEachBatch trades the serial path's one-batch memory
		// peak for O(result) intermediate storage.
		cols, rows := materializeParallel(spec, par, q.meter, q.it.Schema())
		it = &batchSlice{cols: cols, rows: rows, schema: q.it.Schema()}
		q.markDrained()
	}
	for {
		b := it.nextBatch()
		if b == nil {
			return nil
		}
		if q.meter != nil {
			q.meter.RowsEmitted += int64(b.Len())
		}
		if err := fn(b); err != nil {
			return err
		}
	}
}

// OutSchema returns the query's output schema (nil if the query errored).
func (q *Query) OutSchema() Schema {
	if q.err != nil {
		return nil
	}
	return q.it.Schema()
}
