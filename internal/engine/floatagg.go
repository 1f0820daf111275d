package engine

import "fmt"

// Float64 grouped aggregation. Unlike GroupCount's int64 counts, float
// sums are not associative-commutative at the bit level, so the parallel
// path may not merge per-worker partial sums: the accumulation order
// would differ from serial execution and perturb the low bits — and
// anything downstream of them, including figure CSVs. Instead, a
// parallel plan drains the pipeline morsel-parallel (scans, filters and
// probes still fan out) and then accumulates the merged rows in morsel
// order — exactly the serial accumulation order — so the output is
// byte-identical at any worker count, like every other sink.

// groupSumFloat64 drains the query and returns, per first-seen group of
// the Int64 key column ki, the float64 sum over column ci. Each input row
// charges one build unit, as in GroupCount.
func (q *Query) groupSumFloat64(ki, ci int) (keys []int64, sums []float64) {
	slots := make(map[int64]int)
	accumulate := func(k int64, v float64) {
		s, seen := slots[k]
		if !seen {
			s = len(keys)
			slots[k] = s
			keys = append(keys, k)
			sums = append(sums, 0)
		}
		sums[s] += v
	}
	if spec, par := q.parallelPlan(); spec != nil {
		cols, rows := materializeParallel(spec, par, q.meter, q.it.Schema())
		keyVec, valVec := cols[ki].Ints, cols[ci].Floats
		for r := 0; r < rows; r++ {
			accumulate(keyVec[r], valVec[r])
		}
		if q.meter != nil {
			q.meter.RowsBuilt += int64(rows)
		}
		return keys, sums
	}
	for {
		b := q.it.nextBatch()
		if b == nil {
			break
		}
		keyVec, valVec := b.cols[ki].Ints, b.cols[ci].Floats
		b.forEachActive(func(pos int) {
			accumulate(keyVec[pos], valVec[pos])
		})
		if q.meter != nil {
			q.meter.RowsBuilt += int64(b.Len())
		}
	}
	return keys, sums
}

// GroupSumFloat64 groups by an Int64 key column and sums a Float64
// column per group. The output schema is (key, "sum(col)" Float64), in
// first-seen group order; sums accumulate in input row order, so results
// are bit-reproducible (serial and parallel plans alike). Each input row
// charges one build unit, as in GroupCount.
func (q *Query) GroupSumFloat64(key, col string) *Query {
	if q.err != nil {
		return q
	}
	in := q.it.Schema()
	ki := in.ColIndex(key)
	if ki < 0 || in[ki].Type != Int64 {
		q.err = fmt.Errorf("engine: group sum float: bad key column %q", key)
		return q
	}
	ci := in.ColIndex(col)
	if ci < 0 || in[ci].Type != Float64 {
		q.err = fmt.Errorf("engine: group sum float: bad float column %q", col)
		return q
	}
	keys, sums := q.groupSumFloat64(ki, ci)
	q.it = &batchSlice{
		cols: []Vector{
			{Kind: Int64, Ints: keys},
			{Kind: Float64, Floats: sums},
		},
		rows: len(keys),
		schema: Schema{
			{Name: in[ki].Name, Type: Int64},
			{Name: fmt.Sprintf("sum(%s)", col), Type: Float64},
		},
	}
	q.spec = nil
	return q
}
