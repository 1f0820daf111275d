package engine

// Morsel-driven parallel execution (Leis et al., SIGMOD 2014), adapted to
// the batch engine: a query whose pipeline is rooted at a table scan and
// composed only of streamable operators (FilterIntEq, Project, hash/index
// join probes) can be fanned out over fixed-size scan morsels to
// WithParallelism(n) workers. Each worker instantiates its own copy of
// the pipeline with a private Meter, claims morsels from an atomic
// counter, and drains them; pipeline breakers (hash build, GroupCount,
// Top1, sort, Rows/ForEachBatch) merge the per-morsel partials
// deterministically by morsel index and fold the worker meters into the
// query's meter with Meter.Add.
//
// Determinism contract: because morsels partition the scan in row order,
// per-morsel outputs preserve intra-morsel row order, and every merge
// point concatenates (or orders group partials) by first-occurrence
// coordinate, parallel execution produces byte-identical rows — and,
// since the same rows flow through the same charge points, identical
// folded Meter counts — as serial execution at any worker count.

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// morselSize is the number of scan rows in one morsel — the unit of work
// a worker claims. It equals batchSize so a morsel is exactly one scan
// batch; joins fan a morsel out into multiple output batches.
const morselSize = batchSize

// stageKind tags one streamable operator recorded in a pipeSpec.
type stageKind int

const (
	stageFilterIntEq stageKind = iota
	stageProject
	stageHashJoin
	stageIndexJoin
)

// pipeStage is one streamable operator's construction parameters, enough
// to instantiate a fresh iterator per worker. Exactly the fields for its
// kind are set.
type pipeStage struct {
	kind stageKind

	col int // stageFilterIntEq
	val int64

	idx    []int  // stageProject
	schema Schema // stageProject / stageHashJoin / stageIndexJoin output

	build    *buildSide // stageHashJoin (shared, read-only after build)
	probeIdx int        // stageHashJoin / stageIndexJoin
	hidx     *HashIndex // stageIndexJoin (shared, read-only)
}

// pipeSpec is the replayable description of a morsel-parallelizable
// pipeline: a root table scan plus streamable stages. Query methods keep
// it alongside the serial iterator chain and drop it (spec = nil) as soon
// as a non-streamable operator appears.
type pipeSpec struct {
	table  *Table
	stages []pipeStage
}

// addStage appends a streamable stage to a query's spec, if it still has
// one.
func (q *Query) addStage(st pipeStage) {
	if q.spec != nil {
		q.spec.stages = append(q.spec.stages, st)
	}
}

// parallelPlan returns the query's pipeline spec and effective worker
// count when the next pipeline breaker should run morsel-parallel, or
// (nil, 0) for the serial path.
func (q *Query) parallelPlan() (*pipeSpec, int) {
	if q.err != nil || q.par < 2 || q.spec == nil || q.spec.table.Len() == 0 {
		return nil, 0
	}
	return q.spec, q.par
}

// newPipe instantiates one worker's private copy of the pipeline. The
// scan and every per-iterator scratch buffer are worker-local; build
// sides and hash indexes are shared read-only.
func (s *pipeSpec) newPipe(meter *Meter) (*batchScan, batchIterator) {
	ms := &batchScan{t: s.table, meter: meter}
	var it batchIterator = ms
	for i := range s.stages {
		st := &s.stages[i]
		switch st.kind {
		case stageFilterIntEq:
			it = &batchFilter{in: it, col: st.col, val: st.val}
		case stageProject:
			it = &batchProject{in: it, idx: st.idx, schema: st.schema}
		case stageHashJoin:
			it = &batchHashJoin{in: it, build: st.build, probeIdx: st.probeIdx,
				schema: st.schema, meter: meter, pending: -1}
		case stageIndexJoin:
			it = &batchIndexJoin{in: it, idx: st.hidx, probeIdx: st.probeIdx,
				schema: st.schema, meter: meter}
		}
	}
	return ms, it
}

// morselCount returns the number of morsels covering n scan rows.
func morselCount(n int) int { return (n + morselSize - 1) / morselSize }

// runMorsels executes the pipeline over every morsel of the spec's table
// with up to par workers, invoking emit for each output batch. A morsel's
// batches are emitted in order by a single worker, and a worker's claimed
// morsel indexes are strictly increasing, so emit may accumulate state
// keyed by (worker, morsel) without synchronization — it must only touch
// state owned by its worker or its morsel index. wm is the emitting
// worker's private meter (nil when meter is nil) for sink-level charges.
// After all workers finish, the worker meters are folded into meter in
// worker order.
func runMorsels(spec *pipeSpec, par int, meter *Meter, emit func(worker, morsel int, b *Batch, wm *Meter)) {
	n := spec.table.Len()
	morsels := morselCount(n)
	if morsels == 0 {
		return
	}
	if par > morsels {
		par = morsels
	}
	if par < 1 {
		par = 1
	}
	meters := make([]Meter, par)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var wm *Meter
			if meter != nil {
				wm = &meters[w]
			}
			scan, it := spec.newPipe(wm)
			for {
				m := int(next.Add(1)) - 1
				if m >= morsels {
					return
				}
				lo := m * morselSize
				hi := lo + morselSize
				if hi > n {
					hi = n
				}
				scan.reset(lo, hi)
				for {
					b := it.nextBatch()
					if b == nil {
						break
					}
					emit(w, m, b, wm)
				}
			}
		}(w)
	}
	wg.Wait()
	if meter != nil {
		for i := range meters {
			meter.Add(&meters[i])
		}
	}
}

// morselOut accumulates one morsel's output rows as flat vectors.
type morselOut struct {
	cols []Vector
	rows int
}

// materializeParallel drains the pipeline in parallel and concatenates
// the per-morsel outputs in morsel index order — exactly the serial drain
// order. Scan/probe charges happen inside the worker pipelines and fold
// into meter; sink-level charges (build or emit units on the
// materialized rows) are the caller's job.
func materializeParallel(spec *pipeSpec, par int, meter *Meter, schema Schema) ([]Vector, int) {
	outs := make([]morselOut, morselCount(spec.table.Len()))
	runMorsels(spec, par, meter, func(_, m int, b *Batch, _ *Meter) {
		o := &outs[m]
		if o.cols == nil {
			o.cols = make([]Vector, len(schema))
			for i, c := range schema {
				o.cols[i].Kind = c.Type
			}
		}
		b.forEachActive(func(pos int) {
			for c := range o.cols {
				appendValue(&o.cols[c], &b.cols[c], pos)
			}
		})
		o.rows += b.Len()
	})
	total := 0
	for i := range outs {
		total += outs[i].rows
	}
	flat := make([]Vector, len(schema))
	for c, col := range schema {
		flat[c].Kind = col.Type
		switch col.Type {
		case Int64:
			flat[c].Ints = make([]int64, 0, total)
		case Float64:
			flat[c].Floats = make([]float64, 0, total)
		default:
			flat[c].Strs = make([]string, 0, total)
		}
	}
	for i := range outs {
		for c := range outs[i].cols {
			src := &outs[i].cols[c]
			dst := &flat[c]
			switch src.Kind {
			case Int64:
				dst.Ints = append(dst.Ints, src.Ints...)
			case Float64:
				dst.Floats = append(dst.Floats, src.Floats...)
			default:
				dst.Strs = append(dst.Strs, src.Strs...)
			}
		}
	}
	return flat, total
}

// materializeBuildParallel is materializeBuild's morsel-parallel twin:
// the build input is drained in parallel, merged in morsel order, and the
// hash table is then populated from the merged rows — radix-partitioned
// across workers for large builds, sequentially for small ones — so the
// per-key probe chains are threaded in exactly serial build order either
// way. The meters split as in the serial join: the build pipeline's own
// charges fold into pipeMeter (the build query's meter), while the
// per-row build units go to buildMeter (the joining query's meter).
func materializeBuildParallel(spec *pipeSpec, par int, keyIdx int, pipeMeter, buildMeter *Meter, schema Schema) *buildSide {
	cols, rows := materializeParallel(spec, par, pipeMeter, schema)
	if buildMeter != nil {
		buildMeter.RowsBuilt += int64(rows)
	}
	bs := &buildSide{cols: cols, rows: rows}
	if par >= 2 && rows >= partitionedBuildMinRows {
		buildPartitioned(bs, keyIdx, par)
		return bs
	}
	bs.jt = newJoinTable(rows)
	for i, k := range cols[keyIdx].Ints {
		bs.jt.insert(hashKey(k), k, int32(i))
	}
	bs.next = bs.jt.next
	return bs
}

// partitionedBuildMinRows is the build-side size below which a parallel
// join still populates one hash table sequentially: spawning partition
// workers costs more than inserting a couple of morsels' worth of rows.
const partitionedBuildMinRows = 2 * morselSize

// buildPartitioned populates the build side's hash tables
// radix-partitioned by hash prefix: rows are counted and bucketed by the
// top bits of their key hash (a stable counting sort, so each partition
// lists its rows in ascending global row id — serial build order), then
// up to par workers claim partitions and build each partition's table
// independently. All rows of one key share a hash and therefore a
// partition, and within a partition rows are inserted in serial build
// order, so every per-key chain in the shared next array is byte-identical
// to the chain a sequential build threads — probes route by the same hash
// prefix and observe exactly the serial join's output.
func buildPartitioned(bs *buildSide, keyIdx int, par int) {
	rows := bs.rows
	keys := bs.cols[keyIdx].Ints

	nParts := 1
	for nParts < 4*par && nParts < 64 {
		nParts <<= 1
	}
	shift := uint(64 - bits.TrailingZeros(uint(nParts)))

	hashes := make([]uint64, rows)
	starts := make([]int32, nParts+1)
	for i, k := range keys {
		h := hashKey(k)
		hashes[i] = h
		starts[(h>>shift)+1]++
	}
	for p := 1; p <= nParts; p++ {
		starts[p] += starts[p-1]
	}
	rowsByPart := make([]int32, rows)
	cursor := make([]int32, nParts)
	copy(cursor, starts[:nParts])
	for i := range hashes {
		p := hashes[i] >> shift
		rowsByPart[cursor[p]] = int32(i)
		cursor[p]++
	}

	bs.parts = make([]joinTable, nParts)
	bs.partShift = shift
	bs.next = make([]int32, rows)

	workers := par
	if workers > nParts {
		workers = nParts
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				p := int(next.Add(1)) - 1
				if p >= nParts {
					return
				}
				jt := &bs.parts[p]
				own := rowsByPart[starts[p]:starts[p+1]]
				jt.next = bs.next
				jt.initSlots(joinSlots(len(own)))
				for _, row := range own {
					jt.insert(hashes[row], keys[row], row)
				}
			}
		}()
	}
	wg.Wait()
}

// parallelSortMinRows is the result size below which OrderByInt keeps
// the serial stable sort: per-worker runs plus merge rounds only pay off
// once the sort dominates goroutine startup.
const parallelSortMinRows = 4 * morselSize

// parallelSortPerm sorts a permutation of [0, rows) by the int64 key
// column using par workers: the index range is split into contiguous
// chunks, each chunk is sorted concurrently, and adjacent sorted runs are
// merged pairwise (also concurrently) until one run remains. The
// comparator orders by key with the global row index as tiebreak — a
// total order, so the result is exactly the serial stable sort's
// permutation regardless of chunk boundaries or worker count: row index
// order IS input order, because the rows were merged in morsel
// (= serial scan) order before sorting.
func parallelSortPerm(key []int64, rows, par int, desc bool) []int {
	perm := make([]int, rows)
	for i := range perm {
		perm[i] = i
	}
	less := func(a, b int) bool {
		if key[a] != key[b] {
			if desc {
				return key[a] > key[b]
			}
			return key[a] < key[b]
		}
		return a < b
	}
	if par < 2 || rows < parallelSortMinRows {
		sort.Slice(perm, func(a, b int) bool { return less(perm[a], perm[b]) })
		return perm
	}

	// Contiguous chunk bounds: runs[i] covers perm[runs[i]:runs[i+1]).
	runs := make([]int, 0, par+1)
	chunk := (rows + par - 1) / par
	for lo := 0; lo < rows; lo += chunk {
		runs = append(runs, lo)
	}
	runs = append(runs, rows)

	var wg sync.WaitGroup
	for r := 0; r+1 < len(runs); r++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			s := perm[lo:hi]
			sort.Slice(s, func(a, b int) bool { return less(s[a], s[b]) })
		}(runs[r], runs[r+1])
	}
	wg.Wait()

	// Pairwise merge rounds; adjacent runs stay contiguous, so each merge
	// writes its own [lo, hi) span of the scratch buffer.
	buf := make([]int, rows)
	for len(runs) > 2 {
		next := make([]int, 0, len(runs)/2+2)
		var mg sync.WaitGroup
		for r := 0; r+2 < len(runs); r += 2 {
			mg.Add(1)
			go func(lo, mid, hi int) {
				defer mg.Done()
				mergeRuns(buf, perm, lo, mid, hi, less)
			}(runs[r], runs[r+1], runs[r+2])
			next = append(next, runs[r])
		}
		if len(runs)%2 == 0 { // odd run count: the last run carries over
			lo, hi := runs[len(runs)-2], runs[len(runs)-1]
			copy(buf[lo:hi], perm[lo:hi])
			next = append(next, lo)
		}
		next = append(next, rows)
		mg.Wait()
		perm, buf = buf, perm
		runs = next
	}
	return perm
}

// mergeRuns merges the sorted runs src[lo:mid) and src[mid:hi) into
// dst[lo:hi).
func mergeRuns(dst, src []int, lo, mid, hi int, less func(a, b int) bool) {
	i, j, k := lo, mid, lo
	for i < mid && j < hi {
		if less(src[j], src[i]) {
			dst[k] = src[j]
			j++
		} else {
			dst[k] = src[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], src[i:mid])
	copy(dst[k:], src[j:hi])
}

// coord is a row's global first-occurrence coordinate: morsel index in
// the high bits, row position within that morsel's output stream in the
// low 40 bits. Coordinates order rows exactly as the serial engine
// produces them, so "first seen" merges are deterministic.
type coord = uint64

// coordTracker assigns coordinates to a worker's output rows. Because a
// worker sees each of its morsels' batches contiguously and its morsel
// indexes increase, coordinates are strictly increasing per worker.
type coordTracker struct {
	lastMorsel int
	row        uint64
}

func (c *coordTracker) next(morsel int) coord {
	if morsel != c.lastMorsel {
		c.lastMorsel = morsel
		c.row = 0
	}
	r := c.row
	c.row++
	return uint64(morsel)<<40 | r
}

// countPartial is one worker's GroupCount state: per-group counts plus
// the coordinate of each group's first occurrence.
type countPartial struct {
	slots  map[int64]int
	keys   []int64
	coords []coord
	counts []int64
	tr     coordTracker
}

// parallelGroupCount runs GroupCount morsel-parallel on key column ki:
// each worker counts its morsels into a private partial, then the
// partials' counts are added and the merged groups are ordered by
// first-occurrence coordinate — the serial first-seen order. Each input
// row charges one build unit, as in the serial sink.
func parallelGroupCount(spec *pipeSpec, par int, meter *Meter, ki int) ([]int64, []int64) {
	parts := make([]countPartial, par)
	for w := range parts {
		parts[w] = countPartial{slots: make(map[int64]int), tr: coordTracker{lastMorsel: -1}}
	}
	runMorsels(spec, par, meter, func(w, m int, b *Batch, wm *Meter) {
		p := &parts[w]
		keyVec := b.cols[ki].Ints
		b.forEachActive(func(pos int) {
			at := p.tr.next(m)
			k := keyVec[pos]
			s, seen := p.slots[k]
			if !seen {
				s = len(p.keys)
				p.slots[k] = s
				p.keys = append(p.keys, k)
				p.coords = append(p.coords, at)
				p.counts = append(p.counts, 0)
			}
			p.counts[s]++
		})
		if wm != nil {
			wm.RowsBuilt += int64(b.Len())
		}
	})

	gSlots := make(map[int64]int)
	var gKeys, gCounts []int64
	var gCoords []coord
	for w := range parts {
		p := &parts[w]
		for s, k := range p.keys {
			g, seen := gSlots[k]
			if !seen {
				gSlots[k] = len(gKeys)
				gKeys = append(gKeys, k)
				gCoords = append(gCoords, p.coords[s])
				gCounts = append(gCounts, p.counts[s])
				continue
			}
			if p.coords[s] < gCoords[g] {
				gCoords[g] = p.coords[s]
			}
			gCounts[g] += p.counts[s]
		}
	}

	// Order groups by first occurrence — serial first-seen order.
	// Coordinates identify unique rows, so the order is total.
	perm := make([]int, len(gKeys))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return gCoords[perm[a]] < gCoords[perm[b]] })
	keys := make([]int64, len(gKeys))
	counts := make([]int64, len(gKeys))
	for out, g := range perm {
		keys[out] = gKeys[g]
		counts[out] = gCounts[g]
	}
	return keys, counts
}

// top1Partial is one worker's running best row for Top1.
type top1Partial struct {
	found bool
	val   int64
	at    coord
	best  Row
	tr    coordTracker
}

// parallelTop1 finds the row with the largest Int64 value in column i,
// breaking ties by earliest coordinate — the serial first-seen rule.
func parallelTop1(spec *pipeSpec, par int, meter *Meter, width, i int) (Row, bool) {
	parts := make([]top1Partial, par)
	for w := range parts {
		parts[w] = top1Partial{best: make(Row, width), tr: coordTracker{lastMorsel: -1}}
	}
	runMorsels(spec, par, meter, func(w, m int, b *Batch, _ *Meter) {
		p := &parts[w]
		vec := b.cols[i].Ints
		b.forEachActive(func(pos int) {
			at := p.tr.next(m)
			v := vec[pos]
			// Within a worker coordinates increase, so strict > keeps the
			// earliest row among equals, as the serial Top1 does.
			if p.found && v <= p.val {
				return
			}
			p.found, p.val, p.at = true, v, at
			for c := range p.best {
				p.best[c] = b.cols[c].datum(pos)
			}
		})
	})
	bestW := -1
	for w := range parts {
		p := &parts[w]
		if !p.found {
			continue
		}
		if bestW < 0 || p.val > parts[bestW].val ||
			(p.val == parts[bestW].val && p.at < parts[bestW].at) {
			bestW = w
		}
	}
	if bestW < 0 {
		return nil, false
	}
	return parts[bestW].best, true
}
