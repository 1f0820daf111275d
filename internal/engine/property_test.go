package engine

import (
	"fmt"
	"sort"
	"testing"

	"sharedopt/internal/stats"
)

// joinKey renders a row canonically for multiset comparison.
func joinKey(r Row) string {
	s := ""
	for _, d := range r {
		s += d.String() + "|"
	}
	return s
}

func multiset(rows []Row) map[string]int {
	m := make(map[string]int, len(rows))
	for _, r := range rows {
		m[joinKey(r)]++
	}
	return m
}

// nestedLoopJoin is the trivially-correct reference implementation.
func nestedLoopJoin(a, b *Table, aCol, bCol string) []Row {
	ai := a.Schema().ColIndex(aCol)
	bi := b.Schema().ColIndex(bCol)
	var out []Row
	for i := 0; i < a.Len(); i++ {
		for j := 0; j < b.Len(); j++ {
			if a.At(i, ai).Int == b.At(j, bi).Int {
				row := append(append(Row{}, a.RowAt(i)...), b.RowAt(j)...)
				out = append(out, row)
			}
		}
	}
	return out
}

func randomPair(r *stats.RNG) (*Table, *Table) {
	a := NewTable("a", Schema{{Name: "k", Type: Int64}, {Name: "va", Type: Int64}})
	b := NewTable("b", Schema{{Name: "k", Type: Int64}, {Name: "vb", Type: Int64}})
	keyRange := int64(1 + r.Intn(8))
	for i := 0; i < r.Intn(40); i++ {
		a.MustAppend(Row{I(r.Int63n(keyRange)), I(int64(i))})
	}
	for i := 0; i < r.Intn(40); i++ {
		b.MustAppend(Row{I(r.Int63n(keyRange)), I(int64(100 + i))})
	}
	return a, b
}

// Property: HashJoin produces exactly the nested-loop join's multiset.
func TestHashJoinMatchesNestedLoop(t *testing.T) {
	r := stats.NewRNG(101)
	for trial := 0; trial < 200; trial++ {
		a, b := randomPair(r)
		got, err := Scan(a, nil).HashJoin(Scan(b, nil), "k", "k").Rows()
		if err != nil {
			t.Fatal(err)
		}
		want := nestedLoopJoin(a, b, "k", "k")
		gm, wm := multiset(got), multiset(want)
		if len(gm) != len(wm) {
			t.Fatalf("trial %d: %d distinct rows, want %d", trial, len(gm), len(wm))
		}
		for k, n := range wm {
			if gm[k] != n {
				t.Fatalf("trial %d: row %q count %d, want %d", trial, k, gm[k], n)
			}
		}
	}
}

// Property: IndexJoin produces the same multiset as HashJoin.
func TestIndexJoinMatchesHashJoin(t *testing.T) {
	r := stats.NewRNG(202)
	for trial := 0; trial < 200; trial++ {
		a, b := randomPair(r)
		idx, err := BuildHashIndex(b, "k", nil)
		if err != nil {
			t.Fatal(err)
		}
		viaIndex, err := Scan(a, nil).IndexJoin(idx, "k").Rows()
		if err != nil {
			t.Fatal(err)
		}
		viaHash, err := Scan(a, nil).HashJoin(Scan(b, nil), "k", "k").Rows()
		if err != nil {
			t.Fatal(err)
		}
		im, hm := multiset(viaIndex), multiset(viaHash)
		if len(im) != len(hm) {
			t.Fatalf("trial %d: index %d vs hash %d distinct rows", trial, len(im), len(hm))
		}
		for k, n := range hm {
			if im[k] != n {
				t.Fatalf("trial %d: row %q: index %d, hash %d", trial, k, im[k], n)
			}
		}
	}
}

// Property: GroupCount sums to the input cardinality and matches a naive
// count.
func TestGroupCountMatchesNaive(t *testing.T) {
	r := stats.NewRNG(303)
	for trial := 0; trial < 200; trial++ {
		tbl := NewTable("t", Schema{{Name: "g", Type: Int64}})
		naive := map[int64]int64{}
		n := r.Intn(100)
		for i := 0; i < n; i++ {
			v := r.Int63n(10)
			tbl.MustAppend(Row{I(v)})
			naive[v]++
		}
		rows, err := Scan(tbl, nil).GroupCount("g").Rows()
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, row := range rows {
			if naive[row[0].Int] != row[1].Int {
				t.Fatalf("trial %d: group %d count %d, want %d",
					trial, row[0].Int, row[1].Int, naive[row[0].Int])
			}
			total += row[1].Int
		}
		if total != int64(n) {
			t.Fatalf("trial %d: counts sum to %d, want %d", trial, total, n)
		}
	}
}

// Property: OrderByInt emits a sorted permutation of its input.
func TestOrderByIsSortedPermutation(t *testing.T) {
	r := stats.NewRNG(404)
	for trial := 0; trial < 100; trial++ {
		tbl := NewTable("t", Schema{{Name: "x", Type: Int64}})
		var vals []int64
		for i := 0; i < r.Intn(60); i++ {
			v := r.Int63n(50)
			tbl.MustAppend(Row{I(v)})
			vals = append(vals, v)
		}
		rows, err := Scan(tbl, nil).OrderByInt("x", false).Rows()
		if err != nil {
			t.Fatal(err)
		}
		got := make([]int64, len(rows))
		for i, row := range rows {
			got[i] = row[0].Int
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		if fmt.Sprint(got) != fmt.Sprint(vals) {
			t.Fatalf("trial %d: %v != %v", trial, got, vals)
		}
	}
}

// randomMixedTable builds a table with int64, float64, and string
// columns so differential runs cover every vector kind.
func randomMixedTable(r *stats.RNG, name string, maxRows int) *Table {
	t := NewTable(name, Schema{
		{Name: "k", Type: Int64},
		{Name: "v", Type: Int64},
		{Name: "f", Type: Float64},
		{Name: "s", Type: String},
	})
	keyRange := int64(1 + r.Intn(8))
	n := r.Intn(maxRows)
	for i := 0; i < n; i++ {
		t.MustAppend(Row{
			I(r.Int63n(keyRange)),
			I(r.Int63n(100)),
			F(float64(r.Intn(1000)) / 8),
			S(fmt.Sprintf("s%d", r.Intn(5))),
		})
	}
	return t
}

// assertSameExecution drains a batch query and its row-at-a-time
// reference twin and fails unless they produce byte-identical rows in
// identical order AND identical meter counts — the engine's two
// executors must be observationally indistinguishable.
func assertSameExecution(t *testing.T, trial int, got *Query, gm *Meter, want *refQuery, wm *Meter) {
	t.Helper()
	gotRows, gotErr := got.Rows()
	wantRows, wantErr := want.Rows()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("trial %d: batch err %v, reference err %v", trial, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if len(gotRows) != len(wantRows) {
		t.Fatalf("trial %d: batch %d rows, reference %d", trial, len(gotRows), len(wantRows))
	}
	for i := range gotRows {
		if len(gotRows[i]) != len(wantRows[i]) {
			t.Fatalf("trial %d row %d: width %d vs %d", trial, i, len(gotRows[i]), len(wantRows[i]))
		}
		for c := range gotRows[i] {
			if !gotRows[i][c].Equal(wantRows[i][c]) {
				t.Fatalf("trial %d row %d col %d: batch %v, reference %v",
					trial, i, c, gotRows[i][c], wantRows[i][c])
			}
		}
	}
	if *gm != *wm {
		t.Fatalf("trial %d: batch meter %+v, reference meter %+v", trial, *gm, *wm)
	}
}

// diffPipeline pairs a batch-engine pipeline (at a chosen worker count)
// with its row-at-a-time reference twin.
type diffPipeline struct {
	name  string
	batch func(m *Meter, par int) *Query
	ref   func(m *Meter) *refQuery
}

// diffPipelines returns the operator pipelines the differential tests
// drive through both executors. par is applied to every scan, so the
// parallel tests exercise morsel-parallel filters, probes, hash builds,
// aggregation merges and sorts.
func diffPipelines(a, b *Table, idx *HashIndex, desc bool) []diffPipeline {
	return []diffPipeline{
		{"scan",
			func(m *Meter, par int) *Query { return Scan(a, m).WithParallelism(par) },
			func(m *Meter) *refQuery { return refScan(a, m) }},
		{"filter-int-eq-project",
			func(m *Meter, par int) *Query {
				return Scan(a, m).WithParallelism(par).FilterIntEq("k", 2).Project("s", "v")
			},
			func(m *Meter) *refQuery { return refScan(a, m).FilterIntEq("k", 2).Project("s", "v") }},
		{"hash-join",
			func(m *Meter, par int) *Query {
				return Scan(a, m).WithParallelism(par).
					HashJoin(Scan(b, m).WithParallelism(par), "k", "k")
			},
			func(m *Meter) *refQuery { return refScan(a, m).HashJoin(refScan(b, m), "k", "k") }},
		{"hash-join-group",
			func(m *Meter, par int) *Query {
				return Scan(a, m).WithParallelism(par).
					HashJoin(Scan(b, m).WithParallelism(par), "k", "k").
					GroupCount("b.k")
			},
			func(m *Meter) *refQuery {
				return refScan(a, m).HashJoin(refScan(b, m), "k", "k").GroupCount("b.k")
			}},
		{"index-join",
			func(m *Meter, par int) *Query {
				return Scan(a, m).WithParallelism(par).IndexJoin(idx, "k")
			},
			func(m *Meter) *refQuery { return refScan(a, m).IndexJoin(idx, "k") }},
		{"index-join-group",
			func(m *Meter, par int) *Query {
				return Scan(a, m).WithParallelism(par).IndexJoin(idx, "k").GroupCount("b.k")
			},
			func(m *Meter) *refQuery { return refScan(a, m).IndexJoin(idx, "k").GroupCount("b.k") }},
		{"order-by",
			func(m *Meter, par int) *Query {
				return Scan(a, m).WithParallelism(par).OrderByInt("v", desc)
			},
			func(m *Meter) *refQuery { return refScan(a, m).OrderByInt("v", desc) }},
	}
}

// Differential property: every operator pipeline produces byte-identical
// rows and identical meter counts under batch execution and the retained
// row-at-a-time reference, across randomized mixed-type tables. This is
// the metering contract of the batch engine (see batch.go).
func TestBatchMatchesRowReference(t *testing.T) {
	r := stats.NewRNG(707)
	for trial := 0; trial < 150; trial++ {
		a := randomMixedTable(r, "a", 2100) // spans multiple 1024-row batches
		b := randomMixedTable(r, "b", 60)
		idx, err := BuildHashIndex(b, "k", nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range diffPipelines(a, b, idx, trial%2 == 0) {
			gm := NewMeter(DefaultCostModel())
			wm := NewMeter(DefaultCostModel())
			assertSameExecution(t, trial, p.batch(gm, 1), gm, p.ref(wm), wm)

			// ForEachBatch is the other emit charge point: draining the
			// same pipeline batch-natively must yield the same rows and
			// the same meter as the reference's Rows.
			bm := NewMeter(DefaultCostModel())
			rm := NewMeter(DefaultCostModel())
			var viaBatches []Row
			if err := p.batch(bm, 1).ForEachBatch(func(b *Batch) error {
				sel := b.Sel()
				for i := 0; i < b.Len(); i++ {
					pos := i
					if sel != nil {
						pos = int(sel[i])
					}
					row := make(Row, len(b.cols))
					for c := range b.cols {
						row[c] = b.Col(c).datum(pos)
					}
					viaBatches = append(viaBatches, row)
				}
				return nil
			}); err != nil {
				continue // construction errors are covered above
			}
			refRows, err := p.ref(rm).Rows()
			if err != nil {
				t.Fatalf("trial %d %s: reference errored only for ForEachBatch run: %v", trial, p.name, err)
			}
			if len(viaBatches) != len(refRows) {
				t.Fatalf("trial %d %s: ForEachBatch %d rows, reference %d",
					trial, p.name, len(viaBatches), len(refRows))
			}
			for i := range viaBatches {
				for c := range viaBatches[i] {
					if !viaBatches[i][c].Equal(refRows[i][c]) {
						t.Fatalf("trial %d %s row %d col %d: %v vs %v",
							trial, p.name, i, c, viaBatches[i][c], refRows[i][c])
					}
				}
			}
			if *bm != *rm {
				t.Fatalf("trial %d %s: ForEachBatch meter %+v, reference meter %+v",
					trial, p.name, *bm, *rm)
			}
		}
	}
}

// Differential property: morsel-parallel execution at 2, 4 and 8 workers
// produces byte-identical rows and identical Meter counts to the serial
// row-at-a-time reference in rowref_test.go, across the same randomized
// mixed-type pipelines as TestBatchMatchesRowReference. The probe table
// spans several morsels so every worker count splits real work.
func TestParallelMatchesRowReference(t *testing.T) {
	r := stats.NewRNG(808)
	for trial := 0; trial < 40; trial++ {
		a := randomMixedTable(r, "a", 3200) // up to 4 morsels
		b := randomMixedTable(r, "b", 60)
		idx, err := BuildHashIndex(b, "k", nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range diffPipelines(a, b, idx, trial%2 == 0) {
			wm := NewMeter(DefaultCostModel())
			wantRows, wantErr := p.ref(wm).Rows()
			for _, par := range []int{2, 4, 8} {
				gm := NewMeter(DefaultCostModel())
				gotRows, gotErr := p.batch(gm, par).Rows()
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("trial %d %s par %d: err %v, reference err %v",
						trial, p.name, par, gotErr, wantErr)
				}
				if gotErr != nil {
					continue
				}
				if len(gotRows) != len(wantRows) {
					t.Fatalf("trial %d %s par %d: %d rows, reference %d",
						trial, p.name, par, len(gotRows), len(wantRows))
				}
				for i := range gotRows {
					for c := range gotRows[i] {
						if !gotRows[i][c].Equal(wantRows[i][c]) {
							t.Fatalf("trial %d %s par %d row %d col %d: %v, reference %v",
								trial, p.name, par, i, c, gotRows[i][c], wantRows[i][c])
						}
					}
				}
				if *gm != *wm {
					t.Fatalf("trial %d %s par %d: meter %+v, reference %+v",
						trial, p.name, par, *gm, *wm)
				}
			}
		}
	}
}

// Property: the meter is additive — running two queries on one meter
// equals the sum of running them on separate meters.
func TestMeterAdditivity(t *testing.T) {
	r := stats.NewRNG(505)
	a, b := randomPair(r)

	shared := NewMeter(DefaultCostModel())
	if _, err := Scan(a, shared).Rows(); err != nil {
		t.Fatal(err)
	}
	if _, err := Scan(a, shared).HashJoin(Scan(b, shared), "k", "k").Rows(); err != nil {
		t.Fatal(err)
	}

	m1 := NewMeter(DefaultCostModel())
	if _, err := Scan(a, m1).Rows(); err != nil {
		t.Fatal(err)
	}
	m2 := NewMeter(DefaultCostModel())
	if _, err := Scan(a, m2).HashJoin(Scan(b, m2), "k", "k").Rows(); err != nil {
		t.Fatal(err)
	}
	m1.Add(m2)
	if m1.WorkUnits() != shared.WorkUnits() {
		t.Errorf("separate %d != shared %d", m1.WorkUnits(), shared.WorkUnits())
	}
}

// Property: materialized views answer queries identically to recomputing
// from base tables.
func TestViewMatchesBaseComputation(t *testing.T) {
	r := stats.NewRNG(606)
	for trial := 0; trial < 50; trial++ {
		a, b := randomPair(r)
		mv, err := Materialize("j", Scan(a, nil).HashJoin(Scan(b, nil), "k", "k"), "k", nil)
		if err != nil {
			t.Fatal(err)
		}
		fromView, err := Scan(mv.Data, nil).Rows()
		if err != nil {
			t.Fatal(err)
		}
		fromBase, err := Scan(a, nil).HashJoin(Scan(b, nil), "k", "k").Rows()
		if err != nil {
			t.Fatal(err)
		}
		vm, bm := multiset(fromView), multiset(fromBase)
		if len(vm) != len(bm) {
			t.Fatalf("trial %d: view has %d distinct rows, base %d", trial, len(vm), len(bm))
		}
		for k, n := range bm {
			if vm[k] != n {
				t.Fatalf("trial %d: row %q: view %d, base %d", trial, k, vm[k], n)
			}
		}
	}
}
