package engine

import (
	"testing"
)

func testTable(t *testing.T) *Table {
	t.Helper()
	tbl := NewTable("people", Schema{
		{Name: "id", Type: Int64},
		{Name: "age", Type: Int64},
		{Name: "score", Type: Float64},
		{Name: "name", Type: String},
	})
	rows := []Row{
		{I(1), I(30), F(1.5), S("ann")},
		{I(2), I(25), F(2.5), S("bob")},
		{I(3), I(30), F(3.5), S("cay")},
		{I(4), I(40), F(4.5), S("dan")},
	}
	for _, r := range rows {
		tbl.MustAppend(r)
	}
	return tbl
}

func TestTableBasics(t *testing.T) {
	tbl := testTable(t)
	if tbl.Len() != 4 || tbl.Name() != "people" {
		t.Fatalf("Len=%d Name=%s", tbl.Len(), tbl.Name())
	}
	row := tbl.RowAt(2)
	if row[0].Int != 3 || row[3].Str != "cay" {
		t.Errorf("RowAt(2) = %v", row)
	}
	if tbl.At(1, 2).Float != 2.5 {
		t.Errorf("At(1,2) = %v", tbl.At(1, 2))
	}
	ints, err := tbl.IntCol("age")
	if err != nil || len(ints) != 4 || ints[3] != 40 {
		t.Errorf("IntCol: %v %v", ints, err)
	}
	floats, err := tbl.FloatCol("score")
	if err != nil || floats[0] != 1.5 {
		t.Errorf("FloatCol: %v %v", floats, err)
	}
	if _, err := tbl.IntCol("score"); err == nil {
		t.Error("IntCol on float column should fail")
	}
	if _, err := tbl.FloatCol("nope"); err == nil {
		t.Error("FloatCol on missing column should fail")
	}
}

func TestTableAppendValidation(t *testing.T) {
	tbl := testTable(t)
	if err := tbl.Append(Row{I(1)}); err == nil {
		t.Error("short row accepted")
	}
	if err := tbl.Append(Row{I(1), F(2), F(3), S("x")}); err == nil {
		t.Error("type mismatch accepted")
	}
}

func TestNewTablePanicsOnBadSchema(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate column should panic")
		}
	}()
	NewTable("bad", Schema{{Name: "a", Type: Int64}, {Name: "a", Type: Int64}})
}

func TestScanAndMeter(t *testing.T) {
	tbl := testTable(t)
	meter := NewMeter(DefaultCostModel())
	rows, err := Scan(tbl, meter).Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	if meter.RowsScanned != 4 || meter.RowsEmitted != 4 {
		t.Errorf("meter: %+v", meter)
	}
}

func TestFilterProject(t *testing.T) {
	tbl := testTable(t)
	rows, err := Scan(tbl, nil).FilterIntEq("age", 30).Project("name", "id").Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0].Str != "ann" || rows[1][1].Int != 3 {
		t.Errorf("rows = %v", rows)
	}
	if _, err := Scan(tbl, nil).FilterIntEq("ghost", 1).Rows(); err == nil {
		t.Error("missing filter column accepted")
	}
	if _, err := Scan(tbl, nil).FilterIntEq("score", 0).Rows(); err == nil {
		t.Error("float filter column accepted")
	}
	if _, err := Scan(tbl, nil).Project("ghost").Rows(); err == nil {
		t.Error("missing project column accepted")
	}
}

func TestHashJoin(t *testing.T) {
	left := NewTable("orders", Schema{{Name: "uid", Type: Int64}, {Name: "amount", Type: Int64}})
	for _, r := range []Row{{I(1), I(10)}, {I(2), I(20)}, {I(1), I(30)}, {I(9), I(40)}} {
		left.MustAppend(r)
	}
	right := testTable(t)
	meter := NewMeter(DefaultCostModel())
	rows, err := Scan(left, meter).HashJoin(Scan(right, meter), "uid", "id").Rows()
	if err != nil {
		t.Fatal(err)
	}
	// uid 1 matches twice, uid 2 once, uid 9 never.
	if len(rows) != 3 {
		t.Fatalf("%d join rows, want 3", len(rows))
	}
	// Output schema: orders columns then people columns.
	for _, r := range rows {
		if len(r) != 6 {
			t.Fatalf("join row width %d", len(r))
		}
		if r[0].Int != r[2].Int {
			t.Errorf("join key mismatch: %v", r)
		}
	}
	// Meter: 4 probe rows scanned+probed, 4 build rows scanned+built.
	if meter.RowsProbed != 4 || meter.RowsBuilt != 4 || meter.RowsScanned != 8 {
		t.Errorf("meter: %+v", meter)
	}
}

func TestHashJoinNameCollision(t *testing.T) {
	a := NewTable("a", Schema{{Name: "id", Type: Int64}})
	a.MustAppend(Row{I(1)})
	b := NewTable("b", Schema{{Name: "id", Type: Int64}})
	b.MustAppend(Row{I(1)})
	q := Scan(a, nil).HashJoin(Scan(b, nil), "id", "id")
	s := q.OutSchema()
	if s[0].Name != "id" || s[1].Name != "b.id" {
		t.Errorf("schema = %v", s)
	}
}

func TestIndexJoin(t *testing.T) {
	probe := NewTable("p", Schema{{Name: "k", Type: Int64}})
	for _, v := range []int64{5, 6, 5} {
		probe.MustAppend(Row{I(v)})
	}
	base := NewTable("base", Schema{{Name: "k", Type: Int64}, {Name: "v", Type: Int64}})
	for _, r := range []Row{{I(5), I(50)}, {I(6), I(60)}, {I(5), I(55)}} {
		base.MustAppend(r)
	}
	buildMeter := NewMeter(DefaultCostModel())
	idx, err := BuildHashIndex(base, "k", buildMeter)
	if err != nil {
		t.Fatal(err)
	}
	if buildMeter.RowsBuilt != 3 || idx.Keys() != 2 {
		t.Errorf("build meter %+v, keys %d", buildMeter, idx.Keys())
	}
	queryMeter := NewMeter(DefaultCostModel())
	rows, err := Scan(probe, queryMeter).IndexJoin(idx, "k").Rows()
	if err != nil {
		t.Fatal(err)
	}
	// k=5 matches 2 rows (twice), k=6 one: 5 output rows.
	if len(rows) != 5 {
		t.Fatalf("%d rows, want 5", len(rows))
	}
	// The query pays probes, not builds: that asymmetry is the
	// optimization being priced.
	if queryMeter.RowsBuilt != 0 || queryMeter.RowsProbed != 3 {
		t.Errorf("query meter: %+v", queryMeter)
	}
}

func TestGroupCountAndTop1(t *testing.T) {
	tbl := testTable(t)
	rows, err := Scan(tbl, nil).GroupCount("age").Rows()
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int64]int64{}
	for _, r := range rows {
		counts[r[0].Int] = r[1].Int
	}
	if counts[30] != 2 || counts[25] != 1 || counts[40] != 1 {
		t.Errorf("counts = %v", counts)
	}

	top, ok, err := Scan(tbl, nil).GroupCount("age").Top1("count")
	if err != nil {
		t.Fatal(err)
	}
	if !ok || top[0].Int != 30 || top[1].Int != 2 {
		t.Errorf("top = %v, ok=%v", top, ok)
	}
}

func TestTop1EmptyInput(t *testing.T) {
	tbl := NewTable("empty", Schema{{Name: "x", Type: Int64}})
	row, ok, err := Scan(tbl, nil).Top1("x")
	if err != nil {
		t.Fatal(err)
	}
	if ok || row != nil {
		t.Errorf("row = %v, ok=%v", row, ok)
	}
}

func TestOrderByAndLimit(t *testing.T) {
	tbl := testTable(t)
	rows, err := Scan(tbl, nil).OrderByInt("age", true).Rows()
	if err != nil {
		t.Fatal(err)
	}
	// Stable: ann (id 1) stays ahead of cay (id 3) at age 30.
	if len(rows) != 4 || rows[0][1].Int != 40 || rows[1][0].Int != 1 ||
		rows[2][0].Int != 3 || rows[3][1].Int != 25 {
		t.Errorf("rows = %v", rows)
	}
	asc, err := Scan(tbl, nil).OrderByInt("age", false).Rows()
	if err != nil {
		t.Fatal(err)
	}
	if asc[0][1].Int != 25 {
		t.Errorf("asc first = %v", asc[0])
	}
}

func TestMeterArithmetic(t *testing.T) {
	m := NewMeter(CostModel{ScanWeight: 1, BuildWeight: 4, ProbeWeight: 2,
		EmitWeight: 1, WorkUnitsPerSecond: 100})
	m.RowsScanned = 10
	m.RowsBuilt = 5
	m.RowsProbed = 3
	m.RowsEmitted = 2
	if got := m.WorkUnits(); got != 10+20+6+2 {
		t.Errorf("WorkUnits = %d", got)
	}
	// 38 units at 100 units/sec = 380ms.
	if got := m.Elapsed().Milliseconds(); got != 380 {
		t.Errorf("Elapsed = %vms", got)
	}
	var other Meter
	other.RowsScanned = 1
	m.Add(&other)
	if m.RowsScanned != 11 {
		t.Errorf("Add broken: %+v", m)
	}
	m.Reset()
	if m.WorkUnits() != 0 {
		t.Errorf("Reset broken: %+v", m)
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	tbl := testTable(t)
	meter := NewMeter(DefaultCostModel())
	mv, err := Materialize("by_age", Scan(tbl, meter).Project("age", "id"), "age", meter)
	if err != nil {
		t.Fatal(err)
	}
	if mv.Data.Len() != 4 || mv.BuildUnits <= 0 {
		t.Errorf("view: len=%d units=%d", mv.Data.Len(), mv.BuildUnits)
	}
	if err := c.AddView(mv); err != nil {
		t.Fatal(err)
	}
	if err := c.AddView(mv); err == nil {
		t.Error("duplicate view accepted")
	}
	if v, ok := c.View("by_age"); !ok || v != mv {
		t.Error("View lookup failed")
	}
	c.DropView("by_age")
	if _, ok := c.View("by_age"); ok {
		t.Error("DropView failed")
	}
}

func TestDatumHelpers(t *testing.T) {
	if !I(3).Equal(I(3)) || I(3).Equal(I(4)) || I(3).Equal(F(3)) {
		t.Error("Equal broken for ints")
	}
	if !F(1.5).Equal(F(1.5)) || !S("a").Equal(S("a")) || S("a").Equal(S("b")) {
		t.Error("Equal broken")
	}
	if I(3).String() != "3" || F(1.5).String() != "1.5" || S("x").String() != "x" {
		t.Error("String broken")
	}
	if Int64.String() != "int64" || Float64.String() != "float64" || String.String() != "string" {
		t.Error("ColType.String broken")
	}
}

func TestSchemaValidate(t *testing.T) {
	if err := (Schema{{Name: "", Type: Int64}}).Validate(); err == nil {
		t.Error("empty name accepted")
	}
	if (Schema{{Name: "a", Type: Int64}}).ColIndex("b") != -1 {
		t.Error("missing column should be -1")
	}
}
