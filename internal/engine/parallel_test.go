package engine

import (
	"fmt"
	"testing"

	"sharedopt/internal/stats"
)

// bigJoinTables builds a probe table spanning many morsels and a small
// build table, so every worker count in the sweep gets real morsels.
func bigJoinTables(seed uint64, probeRows, buildRows int) (*Table, *Table) {
	r := stats.NewRNG(seed)
	a := NewTable("a", Schema{
		{Name: "k", Type: Int64},
		{Name: "v", Type: Int64},
		{Name: "s", Type: String},
	})
	b := NewTable("b", Schema{{Name: "k", Type: Int64}, {Name: "w", Type: Int64}})
	for i := 0; i < probeRows; i++ {
		a.MustAppend(Row{I(r.Int63n(400)), I(int64(i)), S(fmt.Sprintf("s%d", r.Intn(7)))})
	}
	for i := 0; i < buildRows; i++ {
		b.MustAppend(Row{I(r.Int63n(400)), I(int64(1000 + i))})
	}
	return a, b
}

// assertSameRowsAndMeter fails unless two executions produced identical
// rows in identical order and identical meter counts.
func assertSameRowsAndMeter(t *testing.T, label string, got []Row, gm *Meter, want []Row, wm *Meter) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s row %d: width %d, want %d", label, i, len(got[i]), len(want[i]))
		}
		for c := range got[i] {
			if !got[i][c].Equal(want[i][c]) {
				t.Fatalf("%s row %d col %d: %v, want %v", label, i, c, got[i][c], want[i][c])
			}
		}
	}
	if *gm != *wm {
		t.Fatalf("%s: meter %+v, want %+v", label, *gm, *wm)
	}
}

// The scheduler must produce identical rows and meters at every worker
// count from 1 through 8 — including counts above GOMAXPROCS and above
// the morsel count. Run with -race this also exercises the per-worker
// pipeline isolation (selection buffers, join cursors, meters).
func TestParallelWorkerSweep(t *testing.T) {
	a, b := bigJoinTables(11, 9*morselSize+137, 300)
	serialMeter := NewMeter(DefaultCostModel())
	run := func(par int, m *Meter) []Row {
		t.Helper()
		rows, err := Scan(a, m).WithParallelism(par).
			FilterIntEq("k", 123).
			HashJoin(Scan(b, m).WithParallelism(par), "k", "k").
			GroupCount("w").Rows()
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	want := run(1, serialMeter)
	for par := 1; par <= 8; par++ {
		m := NewMeter(DefaultCostModel())
		got := run(par, m)
		assertSameRowsAndMeter(t, fmt.Sprintf("par=%d", par), got, m, want, serialMeter)
	}
}

// Morsel edge cases: an empty table, a table smaller than one morsel,
// and tables landing exactly on morsel boundaries.
func TestParallelMorselEdgeCases(t *testing.T) {
	for _, rows := range []int{0, 1, 7, morselSize - 1, morselSize, morselSize + 1, 2 * morselSize} {
		a := NewTable("a", Schema{{Name: "k", Type: Int64}, {Name: "odd", Type: Int64}})
		for i := 0; i < rows; i++ {
			a.MustAppend(Row{I(int64(i % 5)), I(int64(i % 2))})
		}
		sm := NewMeter(DefaultCostModel())
		want, err := Scan(a, sm).FilterIntEq("odd", 0).GroupCount("k").Rows()
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{2, 4, 8} {
			pm := NewMeter(DefaultCostModel())
			got, err := Scan(a, pm).WithParallelism(par).
				FilterIntEq("odd", 0).GroupCount("k").Rows()
			if err != nil {
				t.Fatal(err)
			}
			assertSameRowsAndMeter(t, fmt.Sprintf("rows=%d par=%d", rows, par), got, pm, want, sm)
		}
	}
}

// Order-sensitive sinks must merge worker partials back into serial
// order: OrderByInt's stable sort and Top1's first-seen tie-break both
// depend on the merged morsel order being exactly the scan order.
func TestParallelOrderSensitiveSinks(t *testing.T) {
	a, _ := bigJoinTables(17, 6*morselSize+55, 1)
	for _, par := range []int{2, 8} {
		sm := NewMeter(DefaultCostModel())
		want, err := Scan(a, sm).OrderByInt("k", false).Rows()
		if err != nil {
			t.Fatal(err)
		}
		pm := NewMeter(DefaultCostModel())
		got, err := Scan(a, pm).WithParallelism(par).OrderByInt("k", false).Rows()
		if err != nil {
			t.Fatal(err)
		}
		assertSameRowsAndMeter(t, fmt.Sprintf("order-by par=%d", par), got, pm, want, sm)

		sm2 := NewMeter(DefaultCostModel())
		wantTop, _, err := Scan(a, sm2).Top1("k")
		if err != nil {
			t.Fatal(err)
		}
		pm2 := NewMeter(DefaultCostModel())
		gotTop, _, err := Scan(a, pm2).WithParallelism(par).Top1("k")
		if err != nil {
			t.Fatal(err)
		}
		assertSameRowsAndMeter(t, fmt.Sprintf("top1 par=%d", par), []Row{gotTop}, pm2, []Row{wantTop}, sm2)
	}
}

// Top1 returns the row the reference's Top1By(col).Rows() returns, with
// the same found flag and the same meter counts — serial and parallel.
func TestTop1MatchesTop1ByRows(t *testing.T) {
	r := stats.NewRNG(19)
	for trial := 0; trial < 60; trial++ {
		a := randomMixedTable(r, "a", 2*morselSize)
		vm := NewMeter(DefaultCostModel())
		viaRows, err := refScan(a, vm).Top1By("v").Rows()
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 4} {
			tm := NewMeter(DefaultCostModel())
			row, ok, err := Scan(a, tm).WithParallelism(par).Top1("v")
			if err != nil {
				t.Fatal(err)
			}
			if ok != (len(viaRows) == 1) {
				t.Fatalf("trial %d par %d: ok=%v but Top1By returned %d rows", trial, par, ok, len(viaRows))
			}
			if ok {
				for c := range row {
					if !row[c].Equal(viaRows[0][c]) {
						t.Fatalf("trial %d par %d col %d: %v, want %v",
							trial, par, c, row[c], viaRows[0][c])
					}
				}
			}
			if *tm != *vm {
				t.Fatalf("trial %d par %d: Top1 meter %+v, Top1By meter %+v", trial, par, *tm, *vm)
			}
		}
		if _, _, err := Scan(a, nil).Top1("s"); err == nil {
			t.Fatal("Top1 on a string column accepted")
		}
	}
}

// WithParallelism(0) means GOMAXPROCS; whatever it resolves to, results
// match serial.
func TestParallelismDefaultsToGOMAXPROCS(t *testing.T) {
	a, b := bigJoinTables(23, 3*morselSize, 100)
	sm := NewMeter(DefaultCostModel())
	want, err := Scan(a, sm).HashJoin(Scan(b, sm), "k", "k").GroupCount("k").Rows()
	if err != nil {
		t.Fatal(err)
	}
	pm := NewMeter(DefaultCostModel())
	got, err := Scan(a, pm).WithParallelism(0).
		HashJoin(Scan(b, pm).WithParallelism(0), "k", "k").GroupCount("k").Rows()
	if err != nil {
		t.Fatal(err)
	}
	assertSameRowsAndMeter(t, "gomaxprocs", got, pm, want, sm)
}

// Draining a parallel query twice must behave like draining exhausted
// serial iterators: the second drain returns nothing and charges
// nothing, instead of silently re-executing the pipeline and
// double-billing the meter.
func TestParallelRedrainIsEmptyAndFree(t *testing.T) {
	a, _ := bigJoinTables(31, 2*morselSize, 1)
	m := NewMeter(DefaultCostModel())
	q := Scan(a, m).WithParallelism(4)
	first, err := q.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != a.Len() {
		t.Fatalf("first drain: %d rows", len(first))
	}
	charged := *m
	again, err := q.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 0 {
		t.Fatalf("second drain returned %d rows", len(again))
	}
	if *m != charged {
		t.Fatalf("second drain charged the meter: %+v -> %+v", charged, *m)
	}

	q2 := Scan(a, m).WithParallelism(4)
	if _, ok, err := q2.Top1("v"); err != nil || !ok {
		t.Fatalf("top1: ok=%v err=%v", ok, err)
	}
	charged = *m
	if _, ok, err := q2.Top1("v"); err != nil || ok {
		t.Fatalf("second top1: ok=%v err=%v", ok, err)
	}
	if *m != charged {
		t.Fatalf("second Top1 charged the meter: %+v -> %+v", charged, *m)
	}
}

// With distinct meters on the probe and build sides, parallel execution
// must charge each meter exactly what serial charges it: the build
// pipeline's scans bill the build query's meter, the hash-build units
// bill the joining query's meter. The pricing mechanisms bill per user,
// so the split — not just the sum — must hold.
func TestParallelJoinMeterAttribution(t *testing.T) {
	a, b := bigJoinTables(37, 3*morselSize, 2*morselSize)
	run := func(par int) (probe, build Meter) {
		t.Helper()
		pm := NewMeter(DefaultCostModel())
		bm := NewMeter(DefaultCostModel())
		if _, err := Scan(a, pm).WithParallelism(par).
			HashJoin(Scan(b, bm).WithParallelism(par), "k", "k").
			GroupCount("k").Rows(); err != nil {
			t.Fatal(err)
		}
		return *pm, *bm
	}
	wantProbe, wantBuild := run(1)
	for _, par := range []int{2, 4} {
		gotProbe, gotBuild := run(par)
		if gotProbe != wantProbe {
			t.Errorf("par=%d probe meter %+v, serial %+v", par, gotProbe, wantProbe)
		}
		if gotBuild != wantBuild {
			t.Errorf("par=%d build meter %+v, serial %+v", par, gotBuild, wantBuild)
		}
	}
}

// After a join consumes a parallel build query, re-draining that build
// query must return nothing and charge nothing — as it does when serial
// materializeBuild exhausts its iterators.
func TestParallelBuildQueryConsumedByJoin(t *testing.T) {
	a, b := bigJoinTables(41, 2*morselSize, 2*morselSize)
	m := NewMeter(DefaultCostModel())
	build := Scan(b, m).WithParallelism(4)
	if _, err := Scan(a, m).WithParallelism(4).HashJoin(build, "k", "k").Rows(); err != nil {
		t.Fatal(err)
	}
	charged := *m
	rows, err := build.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("consumed build query re-drained %d rows", len(rows))
	}
	if *m != charged {
		t.Fatalf("re-draining the consumed build query charged the meter: %+v -> %+v", charged, *m)
	}
}

// Re-draining a parallel query whose join used a radix-partitioned build
// must behave like re-draining exhausted serial iterators — empty result,
// zero new charges — and the consumed build query itself must also stay
// empty and free. Same contract as TestParallelRedrainIsEmptyAndFree,
// but crossing the partitioned-build threshold.
func TestPartitionedBuildRedrainIsEmptyAndFree(t *testing.T) {
	a, b := bigJoinTables(61, 3*morselSize, partitionedBuildMinRows+99)
	m := NewMeter(DefaultCostModel())
	build := Scan(b, m).WithParallelism(4)
	q := Scan(a, m).WithParallelism(4).HashJoin(build, "k", "k")
	first, err := q.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("join produced no rows; test tables must overlap")
	}
	charged := *m
	again, err := q.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 0 {
		t.Fatalf("second drain returned %d rows", len(again))
	}
	if *m != charged {
		t.Fatalf("second drain charged the meter: %+v -> %+v", charged, *m)
	}
	rows, err := build.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("consumed build query re-drained %d rows", len(rows))
	}
	if *m != charged {
		t.Fatalf("re-draining the consumed build query charged the meter: %+v -> %+v", charged, *m)
	}
}

// A build side that did NOT opt into parallelism must stay serial even
// when the probe side is parallel: each side's WithParallelism governs
// its own pipeline. The serial build drains its own iterator chain (a
// parallel drain would have dropped the build query's morsel plan), and
// results and meters still match an all-serial run.
func TestSerialBuildSideNotEscalated(t *testing.T) {
	a, b := bigJoinTables(43, 3*morselSize, 2*morselSize)
	sm := NewMeter(DefaultCostModel())
	want, err := Scan(a, sm).HashJoin(Scan(b, sm).FilterIntEq("k", 7), "k", "k").GroupCount("k").Rows()
	if err != nil {
		t.Fatal(err)
	}
	pm := NewMeter(DefaultCostModel())
	build := Scan(b, pm).FilterIntEq("k", 7)
	got, err := Scan(a, pm).WithParallelism(4).HashJoin(build, "k", "k").GroupCount("k").Rows()
	if err != nil {
		t.Fatal(err)
	}
	if build.spec == nil {
		t.Fatal("serial build side was drained by the parallel path")
	}
	assertSameRowsAndMeter(t, "serial-build", got, pm, want, sm)
}

// Partitioned hash-join builds must be observationally identical to the
// serial build: the build side here exceeds partitionedBuildMinRows, so
// parallel plans take the radix-partitioned path, and the dense duplicate
// keys make any chain-order deviation visible in the probe output. Rows
// and meters are compared against the row-at-a-time reference in
// rowref_test.go at n ∈ {2, 4, 8}.
func TestPartitionedBuildMatchesRowReference(t *testing.T) {
	r := stats.NewRNG(47)
	probe := NewTable("p", Schema{{Name: "k", Type: Int64}, {Name: "v", Type: Int64}})
	build := NewTable("b", Schema{{Name: "k", Type: Int64}, {Name: "w", Type: Int64}})
	for i := 0; i < 600; i++ {
		probe.MustAppend(Row{I(r.Int63n(50)), I(int64(i))})
	}
	buildRows := partitionedBuildMinRows + 777
	for i := 0; i < buildRows; i++ {
		// ~40 rows per key: every probe hit walks a long chain whose
		// order must be serial build order.
		build.MustAppend(Row{I(r.Int63n(50)), I(int64(i))})
	}
	wm := NewMeter(DefaultCostModel())
	want, err := refScan(probe, wm).HashJoin(refScan(build, wm), "k", "k").Rows()
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4, 8} {
		gm := NewMeter(DefaultCostModel())
		got, err := Scan(probe, gm).WithParallelism(par).
			HashJoin(Scan(build, gm).WithParallelism(par), "k", "k").Rows()
		if err != nil {
			t.Fatal(err)
		}
		assertSameRowsAndMeter(t, fmt.Sprintf("partitioned par=%d", par), got, gm, want, wm)
	}
}

// The parallel merge sort must reproduce the serial stable sort exactly:
// the input exceeds parallelSortMinRows so parallel plans take the
// chunked sort + pairwise merge path, and the narrow key range forces
// long runs of equal keys whose relative order (stability) any merge
// mistake would scramble. Compared against rowref_test.go at n ∈ {2, 4, 8},
// both directions.
func TestParallelMergeSortMatchesRowReference(t *testing.T) {
	r := stats.NewRNG(53)
	a := NewTable("a", Schema{
		{Name: "k", Type: Int64},
		{Name: "v", Type: Int64},
		{Name: "s", Type: String},
	})
	rows := parallelSortMinRows + 1234
	for i := 0; i < rows; i++ {
		a.MustAppend(Row{I(r.Int63n(7)), I(int64(i)), S(fmt.Sprintf("s%d", r.Intn(3)))})
	}
	for _, desc := range []bool{false, true} {
		wm := NewMeter(DefaultCostModel())
		want, err := refScan(a, wm).OrderByInt("k", desc).Rows()
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{2, 4, 8} {
			gm := NewMeter(DefaultCostModel())
			got, err := Scan(a, gm).WithParallelism(par).OrderByInt("k", desc).Rows()
			if err != nil {
				t.Fatal(err)
			}
			assertSameRowsAndMeter(t, fmt.Sprintf("mergesort desc=%v par=%d", desc, par), got, gm, want, wm)
		}
	}
}

// parallelSortPerm must agree with the serial stable sort for every
// worker count and edge-case size: empty input, below the parallel
// threshold, run counts that leave odd tails in the pairwise merge
// rounds, and single-run splits.
func TestParallelSortPermEdgeCases(t *testing.T) {
	r := stats.NewRNG(59)
	for _, rows := range []int{0, 1, 2, 100, parallelSortMinRows - 1, parallelSortMinRows, parallelSortMinRows + 1, 3*parallelSortMinRows + 17} {
		key := make([]int64, rows)
		for i := range key {
			key[i] = r.Int63n(5)
		}
		for _, desc := range []bool{false, true} {
			want := parallelSortPerm(key, rows, 1, desc)
			for _, par := range []int{2, 3, 5, 8} {
				got := parallelSortPerm(key, rows, par, desc)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("rows=%d par=%d desc=%v: perm[%d]=%d, want %d",
							rows, par, desc, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// ForEachBatch under a parallel plan must emit the same row stream and
// the same emit charges as the serial drain.
func TestParallelForEachBatch(t *testing.T) {
	a, b := bigJoinTables(29, 4*morselSize+9, 150)
	collect := func(par int, m *Meter) []Row {
		t.Helper()
		var rows []Row
		err := Scan(a, m).WithParallelism(par).
			HashJoin(Scan(b, m).WithParallelism(par), "k", "k").
			ForEachBatch(func(b *Batch) error {
				b.forEachActive(func(pos int) {
					row := make(Row, len(b.cols))
					for c := range b.cols {
						row[c] = b.Col(c).datum(pos)
					}
					rows = append(rows, row)
				})
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	sm := NewMeter(DefaultCostModel())
	want := collect(1, sm)
	pm := NewMeter(DefaultCostModel())
	got := collect(4, pm)
	assertSameRowsAndMeter(t, "foreachbatch", got, pm, want, sm)
}
