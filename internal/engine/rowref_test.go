package engine

import (
	"fmt"
	"sort"
)

// Row-at-a-time reference implementation. This is the engine's original
// Volcano-style executor, kept as the executable specification of both
// row output (order and values) and the metering contract: the property
// tests in property_test.go and parallel_test.go assert that the columnar
// batch operators, serial and morsel-parallel, produce byte-identical
// rows and identical Meter counts against it on randomized inputs.
// refQuery.Top1By followed by Rows is the reference for Query.Top1.

// Iterator is a pull-based row stream — the reference execution
// contract.
type Iterator interface {
	// Schema describes the rows produced.
	Schema() Schema
	// Next returns the next row, or false when exhausted.
	Next() (Row, bool)
}

// refQuery is the reference counterpart of Query, with the same builder
// surface and charge points.
type refQuery struct {
	it    Iterator
	meter *Meter
	err   error
}

// refScan starts a reference query scanning a table.
func refScan(t *Table, meter *Meter) *refQuery {
	return &refQuery{it: &refScanIter{t: t, meter: meter}, meter: meter}
}

type refScanIter struct {
	t     *Table
	meter *Meter
	pos   int
}

func (s *refScanIter) Schema() Schema { return s.t.Schema() }

func (s *refScanIter) Next() (Row, bool) {
	if s.pos >= s.t.Len() {
		return nil, false
	}
	row := s.t.RowAt(s.pos)
	s.pos++
	if s.meter != nil {
		s.meter.RowsScanned++
	}
	return row, true
}

func (q *refQuery) FilterIntEq(col string, v int64) *refQuery {
	if q.err != nil {
		return q
	}
	i := q.it.Schema().ColIndex(col)
	if i < 0 || q.it.Schema()[i].Type != Int64 {
		q.err = fmt.Errorf("engine: filter: bad column %q", col)
		return q
	}
	q.it = &refFilterIter{in: q.it, pred: func(r Row) bool { return r[i].Int == v }}
	return q
}

type refFilterIter struct {
	in   Iterator
	pred func(Row) bool
}

func (f *refFilterIter) Schema() Schema { return f.in.Schema() }

func (f *refFilterIter) Next() (Row, bool) {
	for {
		row, ok := f.in.Next()
		if !ok {
			return nil, false
		}
		if f.pred(row) {
			return row, true
		}
	}
}

func (q *refQuery) Project(cols ...string) *refQuery {
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
	q.it = &refProjectIter{in: q.it, idx: idx, schema: out}
	return q
}

type refProjectIter struct {
	in     Iterator
	idx    []int
	schema Schema
}

func (p *refProjectIter) Schema() Schema { return p.schema }

func (p *refProjectIter) Next() (Row, bool) {
	row, ok := p.in.Next()
	if !ok {
		return nil, false
	}
	out := make(Row, len(p.idx))
	for k, i := range p.idx {
		out[k] = row[i]
	}
	return out, true
}

func (q *refQuery) HashJoin(build *refQuery, probeCol, buildCol string) *refQuery {
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
	ht := make(map[int64][]Row)
	for {
		row, ok := build.it.Next()
		if !ok {
			break
		}
		key := row[bi].Int
		ht[key] = append(ht[key], row)
		if q.meter != nil {
			q.meter.RowsBuilt++
		}
	}
	q.it = &refHashJoinIter{in: q.it, ht: ht, probeIdx: pi,
		schema: joinSchema(q.it.Schema(), bSchema), meter: q.meter}
	return q
}

type refHashJoinIter struct {
	in       Iterator
	ht       map[int64][]Row
	probeIdx int
	schema   Schema
	meter    *Meter

	pending []Row
	current Row
}

func (h *refHashJoinIter) Schema() Schema { return h.schema }

func (h *refHashJoinIter) Next() (Row, bool) {
	for {
		if len(h.pending) > 0 {
			match := h.pending[0]
			h.pending = h.pending[1:]
			out := make(Row, 0, len(h.schema))
			out = append(out, h.current...)
			out = append(out, match...)
			return out, true
		}
		row, ok := h.in.Next()
		if !ok {
			return nil, false
		}
		if h.meter != nil {
			h.meter.RowsProbed++
		}
		h.current = row
		h.pending = h.ht[row[h.probeIdx].Int]
	}
}

func (q *refQuery) IndexJoin(idx *HashIndex, probeCol string) *refQuery {
	if q.err != nil {
		return q
	}
	pi := q.it.Schema().ColIndex(probeCol)
	if pi < 0 || q.it.Schema()[pi].Type != Int64 {
		q.err = fmt.Errorf("engine: index join: bad probe column %q", probeCol)
		return q
	}
	q.it = &refIndexJoinIter{in: q.it, idx: idx, probeIdx: pi,
		schema: joinSchema(q.it.Schema(), idx.Table().Schema()), meter: q.meter}
	return q
}

type refIndexJoinIter struct {
	in       Iterator
	idx      *HashIndex
	probeIdx int
	schema   Schema
	meter    *Meter

	pending []int32
	current Row
}

func (ij *refIndexJoinIter) Schema() Schema { return ij.schema }

func (ij *refIndexJoinIter) Next() (Row, bool) {
	for {
		if len(ij.pending) > 0 {
			pos := ij.pending[0]
			ij.pending = ij.pending[1:]
			out := make(Row, 0, len(ij.schema))
			out = append(out, ij.current...)
			out = append(out, ij.idx.Table().RowAt(int(pos))...)
			return out, true
		}
		row, ok := ij.in.Next()
		if !ok {
			return nil, false
		}
		ij.current = row
		ij.pending = ij.idx.Lookup(row[ij.probeIdx].Int, ij.meter)
	}
}

func (q *refQuery) GroupCount(col string) *refQuery {
	if q.err != nil {
		return q
	}
	i := q.it.Schema().ColIndex(col)
	if i < 0 || q.it.Schema()[i].Type != Int64 {
		q.err = fmt.Errorf("engine: group count: bad column %q", col)
		return q
	}
	counts := make(map[int64]int64)
	order := make([]int64, 0)
	for {
		row, ok := q.it.Next()
		if !ok {
			break
		}
		k := row[i].Int
		if _, seen := counts[k]; !seen {
			order = append(order, k)
		}
		counts[k]++
		if q.meter != nil {
			q.meter.RowsBuilt++
		}
	}
	name := q.it.Schema()[i].Name
	rows := make([]Row, 0, len(order))
	for _, k := range order {
		rows = append(rows, Row{I(k), I(counts[k])})
	}
	q.it = &refSliceIter{rows: rows, schema: Schema{{Name: name, Type: Int64}, {Name: "count", Type: Int64}}}
	return q
}

type refSliceIter struct {
	rows   []Row
	schema Schema
	pos    int
}

func (s *refSliceIter) Schema() Schema { return s.schema }

func (s *refSliceIter) Next() (Row, bool) {
	if s.pos >= len(s.rows) {
		return nil, false
	}
	r := s.rows[s.pos]
	s.pos++
	return r, true
}

func (q *refQuery) Top1By(col string) *refQuery {
	if q.err != nil {
		return q
	}
	i := q.it.Schema().ColIndex(col)
	if i < 0 || q.it.Schema()[i].Type != Int64 {
		q.err = fmt.Errorf("engine: top1: bad column %q", col)
		return q
	}
	var best Row
	for {
		row, ok := q.it.Next()
		if !ok {
			break
		}
		if best == nil || row[i].Int > best[i].Int {
			best = row
		}
	}
	rows := []Row{}
	if best != nil {
		rows = append(rows, best)
	}
	q.it = &refSliceIter{rows: rows, schema: q.it.Schema()}
	return q
}

func (q *refQuery) OrderByInt(col string, desc bool) *refQuery {
	if q.err != nil {
		return q
	}
	i := q.it.Schema().ColIndex(col)
	if i < 0 || q.it.Schema()[i].Type != Int64 {
		q.err = fmt.Errorf("engine: order by: bad column %q", col)
		return q
	}
	var rows []Row
	for {
		row, ok := q.it.Next()
		if !ok {
			break
		}
		rows = append(rows, row)
	}
	sort.SliceStable(rows, func(a, b int) bool {
		if desc {
			return rows[a][i].Int > rows[b][i].Int
		}
		return rows[a][i].Int < rows[b][i].Int
	})
	q.it = &refSliceIter{rows: rows, schema: q.it.Schema()}
	return q
}

func (q *refQuery) Rows() ([]Row, error) {
	if q.err != nil {
		return nil, q.err
	}
	var out []Row
	for {
		row, ok := q.it.Next()
		if !ok {
			break
		}
		out = append(out, row)
		if q.meter != nil {
			q.meter.RowsEmitted++
		}
	}
	return out, nil
}

func (q *refQuery) OutSchema() Schema {
	if q.err != nil {
		return nil
	}
	return q.it.Schema()
}
