package engine

// Columnar batch execution. Operators pass a Batch — column vectors plus
// an optional selection vector — instead of one Row at a time, so the hot
// loops (scans, hash probes, aggregation) run over typed slices with no
// per-row interface calls and no per-row Datum materialization.
//
// Metering contract: batch operators charge the meter for exactly the
// same unit counts, in the same places, as the row-at-a-time reference
// executor the tests keep in rowref_test.go — one scan per row a Scan
// produces, one build per row entering a hash build or aggregation, one
// probe per probe-side row reaching a join, one emit per row leaving
// Rows/ForEachBatch/Top1. A drain pulls its input to exhaustion, so the
// counts do not depend on batch boundaries; a ForEachBatch that its
// callback stops early is the one exception (see its comment).
//
// The streamable operators here (scan, filter, project, join probes) are
// also instantiated per worker by the morsel-parallel scheduler in
// parallel.go; their only shared state across instances is read-only
// (tables, build sides, hash indexes).

// batchSize is the most rows a batch carries. 1024 keeps a batch of a
// few int64 columns inside L2 while amortizing per-batch overhead to
// noise.
const batchSize = 1024

// Vector is one column of a Batch. Exactly the slice matching Kind is
// populated, aligned with the batch's physical row positions.
type Vector struct {
	Kind   ColType
	Ints   []int64
	Floats []float64
	Strs   []string
}

// datum returns the vector's value at physical position i as a Datum.
func (v *Vector) datum(i int) Datum {
	switch v.Kind {
	case Int64:
		return I(v.Ints[i])
	case Float64:
		return F(v.Floats[i])
	default:
		return S(v.Strs[i])
	}
}

// Batch is a columnar set of rows flowing between operators: one Vector
// per output column plus an optional selection vector. A batch returned
// by an iterator is valid only until the next pull from that iterator;
// consumers must copy what they retain.
type Batch struct {
	cols []Vector
	sel  []int32 // active physical positions, ascending; nil = all
	n    int     // physical row count of every vector
}

// Len returns the number of active (selected) rows.
func (b *Batch) Len() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return b.n
}

// Col returns column i's vector. Positions in it are physical: apply
// Sel() when one is present.
func (b *Batch) Col(i int) *Vector { return &b.cols[i] }

// Sel returns the selection vector (active physical positions in
// ascending order), or nil when every physical row is active.
func (b *Batch) Sel() []int32 { return b.sel }

// forEachActive calls fn for each active physical position, in order.
func (b *Batch) forEachActive(fn func(pos int)) {
	if b.sel != nil {
		for _, p := range b.sel {
			fn(int(p))
		}
		return
	}
	for p := 0; p < b.n; p++ {
		fn(p)
	}
}

// batchIterator is the pull interface between batch operators. nextBatch
// returns the next batch of at most batchSize rows, or nil when
// exhausted.
type batchIterator interface {
	Schema() Schema
	nextBatch() *Batch
}

// batchScan streams rows [pos, end) of a table's columns as zero-copy
// vector views. The serial scan covers the whole table; a parallel
// worker resets it to each morsel it claims and so reuses one pipeline
// instance across them.
type batchScan struct {
	t        *Table
	meter    *Meter
	pos, end int
	out      Batch
}

func (s *batchScan) reset(lo, hi int) { s.pos, s.end = lo, hi }

func (s *batchScan) Schema() Schema { return s.t.Schema() }

func (s *batchScan) nextBatch() *Batch {
	remaining := s.end - s.pos
	if remaining <= 0 {
		return nil
	}
	n := batchSize
	if remaining < n {
		n = remaining
	}
	lo, hi := s.pos, s.pos+n
	s.pos = hi
	t := s.t
	if s.out.cols == nil {
		s.out.cols = make([]Vector, len(t.schema))
	}
	for i, c := range t.schema {
		slot := t.colSlot[i]
		v := &s.out.cols[i]
		v.Kind = c.Type
		switch c.Type {
		case Int64:
			v.Ints = t.ints[slot][lo:hi:hi]
		case Float64:
			v.Floats = t.floats[slot][lo:hi:hi]
		default:
			v.Strs = t.strs[slot][lo:hi:hi]
		}
	}
	s.out.sel = nil
	s.out.n = n
	if s.meter != nil {
		s.meter.RowsScanned += int64(n)
	}
	return &s.out
}

// batchFilter keeps the rows whose Int64 column col equals val,
// narrowing the selection vector.
type batchFilter struct {
	in  batchIterator
	col int
	val int64

	selBuf []int32
	out    Batch
}

func (f *batchFilter) Schema() Schema { return f.in.Schema() }

func (f *batchFilter) nextBatch() *Batch {
	for {
		b := f.in.nextBatch()
		if b == nil {
			return nil
		}
		vec := b.cols[f.col].Ints
		sel := f.selBuf[:0]
		b.forEachActive(func(pos int) {
			if vec[pos] == f.val {
				sel = append(sel, int32(pos))
			}
		})
		f.selBuf = sel
		if len(sel) == 0 {
			continue
		}
		f.out = Batch{cols: b.cols, sel: sel, n: b.n}
		return &f.out
	}
}

// appendValue copies src's value at physical position pos onto dst.
func appendValue(dst, src *Vector, pos int) {
	switch src.Kind {
	case Int64:
		dst.Ints = append(dst.Ints, src.Ints[pos])
	case Float64:
		dst.Floats = append(dst.Floats, src.Floats[pos])
	default:
		dst.Strs = append(dst.Strs, src.Strs[pos])
	}
}

// batchProject reorders column views; the selection vector passes
// through untouched, so projection costs nothing per row.
type batchProject struct {
	in     batchIterator
	idx    []int
	schema Schema
	out    Batch
}

func (p *batchProject) Schema() Schema { return p.schema }

func (p *batchProject) nextBatch() *Batch {
	b := p.in.nextBatch()
	if b == nil {
		return nil
	}
	if p.out.cols == nil {
		p.out.cols = make([]Vector, len(p.idx))
	}
	for k, i := range p.idx {
		p.out.cols[k] = b.cols[i]
	}
	p.out.sel = b.sel
	p.out.n = b.n
	return &p.out
}

// joinTable is an open-addressing int64 → row-positions hash table for
// the batch hash join: linear probing over power-of-two slots, with
// per-key row chains threaded through next so duplicate build keys are
// emitted in build order (matching the reference's map[int64][]Row).
//
// next is indexed by build row id. A serial build owns the whole array;
// a radix-partitioned build (see buildPartitioned in parallel.go) hands
// every partition's table the same shared backing array — each row
// belongs to exactly one partition, so concurrent partition builds write
// disjoint entries.
type joinTable struct {
	mask int
	keys []int64
	head []int32 // first build row for the slot's key, -1 = empty slot
	tail []int32
	next []int32 // next build row with the same key, -1 = end
}

// joinSlots returns the power-of-two slot count for a table over rows
// keys (load factor ≤ 0.5).
func joinSlots(rows int) int {
	cap := 16
	for cap < 2*rows {
		cap *= 2
	}
	return cap
}

func newJoinTable(rows int) *joinTable {
	jt := &joinTable{next: make([]int32, rows)}
	jt.initSlots(joinSlots(rows))
	return jt
}

// initSlots (re)initializes the slot arrays to the given power-of-two
// size, leaving next alone.
func (jt *joinTable) initSlots(cap int) {
	jt.mask = cap - 1
	jt.keys = make([]int64, cap)
	jt.head = make([]int32, cap)
	jt.tail = make([]int32, cap)
	for i := range jt.head {
		jt.head[i] = -1
	}
}

// hashKey mixes an int64 key (splitmix64 finalizer) so sequential keys
// spread across slots.
func hashKey(k int64) uint64 {
	x := uint64(k)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// insert records that build row `row` has the given key. Rows of one key
// must be inserted in build order; h must be hashKey(key).
func (jt *joinTable) insert(h uint64, key int64, row int32) {
	jt.next[row] = -1
	slot := int(h) & jt.mask
	for {
		if jt.head[slot] < 0 {
			jt.keys[slot] = key
			jt.head[slot] = row
			jt.tail[slot] = row
			return
		}
		if jt.keys[slot] == key {
			jt.next[jt.tail[slot]] = row
			jt.tail[slot] = row
			return
		}
		slot = (slot + 1) & jt.mask
	}
}

// lookup returns the first build row with the key, or -1; h must be
// hashKey(key).
func (jt *joinTable) lookup(h uint64, key int64) int32 {
	slot := int(h) & jt.mask
	for {
		hd := jt.head[slot]
		if hd < 0 {
			return -1
		}
		if jt.keys[slot] == key {
			return hd
		}
		slot = (slot + 1) & jt.mask
	}
}

// buildSide is a join's materialized build input: its columns as flat
// vectors plus the hash table(s) over the join key — either one serial
// table (jt) or radix partitions routed by hash prefix (parts/partShift;
// see buildPartitioned in parallel.go). Either way next holds the
// per-key row chains, threaded in serial build order, and probing is
// byte-identical between the two layouts.
type buildSide struct {
	cols []Vector
	rows int

	jt        *joinTable
	parts     []joinTable
	partShift uint
	next      []int32
}

// first returns the first build row with the key, or -1.
func (bs *buildSide) first(key int64) int32 {
	h := hashKey(key)
	if bs.parts != nil {
		return bs.parts[h>>bs.partShift].lookup(h, key)
	}
	return bs.jt.lookup(h, key)
}

// materializeBuild drains a query's batches into flat vectors, inserting
// keyIdx into the hash table and charging one build unit per row — the
// same charge point as the reference join's build drain.
func materializeBuild(in batchIterator, keyIdx int, meter *Meter) *buildSide {
	schema := in.Schema()
	bs := &buildSide{cols: make([]Vector, len(schema))}
	for i, c := range schema {
		bs.cols[i].Kind = c.Type
	}
	var keys []int64
	for {
		b := in.nextBatch()
		if b == nil {
			break
		}
		b.forEachActive(func(pos int) {
			for c := range b.cols {
				appendValue(&bs.cols[c], &b.cols[c], pos)
			}
			keys = append(keys, b.cols[keyIdx].Ints[pos])
			bs.rows++
		})
		if meter != nil {
			meter.RowsBuilt += int64(b.Len())
		}
	}
	bs.jt = newJoinTable(bs.rows)
	for i, k := range keys {
		bs.jt.insert(hashKey(k), k, int32(i))
	}
	bs.next = bs.jt.next
	return bs
}

// batchHashJoin probes the build side once per probe row, gathering
// matched probe and build columns into output vectors without ever
// materializing an intermediate Row.
type batchHashJoin struct {
	in       batchIterator
	build    *buildSide
	probeIdx int
	schema   Schema
	meter    *Meter

	cur     *Batch // current probe batch
	curPos  int    // index into cur's active rows
	pending int32  // next matching build row for the current probe row, -1 = none
	curRow  int    // physical position of the current probe row

	out Batch
}

func (h *batchHashJoin) Schema() Schema { return h.schema }

// activeAt returns the physical position of active row i in b.
func activeAt(b *Batch, i int) int {
	if b.sel != nil {
		return int(b.sel[i])
	}
	return i
}

func (h *batchHashJoin) nextBatch() *Batch {
	nProbe := len(h.in.Schema())
	if h.out.cols == nil {
		h.out.cols = make([]Vector, len(h.schema))
		for i, c := range h.schema {
			h.out.cols[i].Kind = c.Type
		}
	}
	for i := range h.out.cols {
		v := &h.out.cols[i]
		v.Ints, v.Floats, v.Strs = v.Ints[:0], v.Floats[:0], v.Strs[:0]
	}
	emitted := 0
	for emitted < batchSize {
		if h.pending >= 0 {
			for c := 0; c < nProbe; c++ {
				appendValue(&h.out.cols[c], &h.cur.cols[c], h.curRow)
			}
			for c := nProbe; c < len(h.schema); c++ {
				bc := &h.build.cols[c-nProbe]
				appendValue(&h.out.cols[c], bc, int(h.pending))
			}
			h.pending = h.build.next[h.pending]
			emitted++
			continue
		}
		if h.cur == nil || h.curPos >= h.cur.Len() {
			h.cur = h.in.nextBatch()
			h.curPos = 0
			if h.cur == nil {
				break
			}
			continue
		}
		h.curRow = activeAt(h.cur, h.curPos)
		h.curPos++
		if h.meter != nil {
			h.meter.RowsProbed++
		}
		h.pending = h.build.first(h.cur.cols[h.probeIdx].Ints[h.curRow])
	}
	if emitted == 0 {
		return nil
	}
	h.out.sel = nil
	h.out.n = emitted
	return &h.out
}

// batchIndexJoin is the index-probing variant: build cost was paid when
// the index was created, so each probe row charges a probe via
// HashIndex.Lookup and gathers matches straight from the indexed table's
// column storage.
type batchIndexJoin struct {
	in       batchIterator
	idx      *HashIndex
	probeIdx int
	schema   Schema
	meter    *Meter

	cur     *Batch
	curPos  int
	curRow  int
	pending []int32
	pendPos int

	out Batch
}

func (ij *batchIndexJoin) Schema() Schema { return ij.schema }

func (ij *batchIndexJoin) nextBatch() *Batch {
	nProbe := len(ij.in.Schema())
	t := ij.idx.Table()
	if ij.out.cols == nil {
		ij.out.cols = make([]Vector, len(ij.schema))
		for i, c := range ij.schema {
			ij.out.cols[i].Kind = c.Type
		}
	}
	for i := range ij.out.cols {
		v := &ij.out.cols[i]
		v.Ints, v.Floats, v.Strs = v.Ints[:0], v.Floats[:0], v.Strs[:0]
	}
	emitted := 0
	for emitted < batchSize {
		if ij.pendPos < len(ij.pending) {
			pos := int(ij.pending[ij.pendPos])
			ij.pendPos++
			for c := 0; c < nProbe; c++ {
				appendValue(&ij.out.cols[c], &ij.cur.cols[c], ij.curRow)
			}
			for c := nProbe; c < len(ij.schema); c++ {
				ti := c - nProbe
				slot := t.colSlot[ti]
				v := &ij.out.cols[c]
				switch t.schema[ti].Type {
				case Int64:
					v.Ints = append(v.Ints, t.ints[slot][pos])
				case Float64:
					v.Floats = append(v.Floats, t.floats[slot][pos])
				default:
					v.Strs = append(v.Strs, t.strs[slot][pos])
				}
			}
			emitted++
			continue
		}
		if ij.cur == nil || ij.curPos >= ij.cur.Len() {
			ij.cur = ij.in.nextBatch()
			ij.curPos = 0
			if ij.cur == nil {
				break
			}
			continue
		}
		ij.curRow = activeAt(ij.cur, ij.curPos)
		ij.curPos++
		ij.pending = ij.idx.Lookup(ij.cur.cols[ij.probeIdx].Ints[ij.curRow], ij.meter)
		ij.pendPos = 0
	}
	if emitted == 0 {
		return nil
	}
	ij.out.sel = nil
	ij.out.n = emitted
	return &ij.out
}

// batchSlice serves pre-materialized vectors (aggregation and sort
// results) as batchSize-row views.
type batchSlice struct {
	cols   []Vector
	rows   int
	schema Schema
	pos    int
	out    Batch
}

func (s *batchSlice) Schema() Schema { return s.schema }

func (s *batchSlice) nextBatch() *Batch {
	remaining := s.rows - s.pos
	if remaining <= 0 {
		return nil
	}
	n := batchSize
	if remaining < n {
		n = remaining
	}
	lo, hi := s.pos, s.pos+n
	s.pos = hi
	if s.out.cols == nil {
		s.out.cols = make([]Vector, len(s.cols))
	}
	for i := range s.cols {
		src := &s.cols[i]
		v := &s.out.cols[i]
		v.Kind = src.Kind
		switch src.Kind {
		case Int64:
			v.Ints = src.Ints[lo:hi:hi]
		case Float64:
			v.Floats = src.Floats[lo:hi:hi]
		default:
			v.Strs = src.Strs[lo:hi:hi]
		}
	}
	s.out.sel = nil
	s.out.n = n
	return &s.out
}
