package engine

import "fmt"

// Table is an immutable-schema, append-only columnar table.
type Table struct {
	name   string
	schema Schema
	ints   [][]int64
	floats [][]float64
	strs   [][]string
	// colSlot[i] indexes into the typed storage for column i.
	colSlot []int
	rows    int
}

// NewTable creates an empty table. It panics on an invalid schema, which
// is a programming error in the caller.
func NewTable(name string, schema Schema) *Table {
	if err := schema.Validate(); err != nil {
		panic(err)
	}
	t := &Table{name: name, schema: schema, colSlot: make([]int, len(schema))}
	for i, c := range schema {
		switch c.Type {
		case Int64:
			t.colSlot[i] = len(t.ints)
			t.ints = append(t.ints, nil)
		case Float64:
			t.colSlot[i] = len(t.floats)
			t.floats = append(t.floats, nil)
		case String:
			t.colSlot[i] = len(t.strs)
			t.strs = append(t.strs, nil)
		default:
			panic(fmt.Sprintf("engine: unknown column type %v", c.Type))
		}
	}
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() Schema { return t.schema }

// Len returns the number of rows.
func (t *Table) Len() int { return t.rows }

// Append adds one row. The row must match the schema positionally.
func (t *Table) Append(row Row) error {
	if len(row) != len(t.schema) {
		return fmt.Errorf("engine: table %s: row has %d values, schema has %d columns",
			t.name, len(row), len(t.schema))
	}
	for i, d := range row {
		if d.Kind != t.schema[i].Type {
			return fmt.Errorf("engine: table %s: column %s wants %v, got %v",
				t.name, t.schema[i].Name, t.schema[i].Type, d.Kind)
		}
	}
	for i, d := range row {
		slot := t.colSlot[i]
		switch d.Kind {
		case Int64:
			t.ints[slot] = append(t.ints[slot], d.Int)
		case Float64:
			t.floats[slot] = append(t.floats[slot], d.Float)
		default:
			t.strs[slot] = append(t.strs[slot], d.Str)
		}
	}
	t.rows++
	return nil
}

// MustAppend is Append that panics on error, for loaders with
// statically-correct rows.
func (t *Table) MustAppend(row Row) {
	if err := t.Append(row); err != nil {
		panic(err)
	}
}

// At returns the datum at (row, col).
func (t *Table) At(row, col int) Datum {
	c := t.schema[col]
	slot := t.colSlot[col]
	switch c.Type {
	case Int64:
		return I(t.ints[slot][row])
	case Float64:
		return F(t.floats[slot][row])
	default:
		return S(t.strs[slot][row])
	}
}

// RowAt materializes row i.
func (t *Table) RowAt(i int) Row {
	row := make(Row, len(t.schema))
	for c := range t.schema {
		row[c] = t.At(i, c)
	}
	return row
}

// IntCol returns the backing slice of an Int64 column, for index builds
// and tight scans. Callers must not modify it.
func (t *Table) IntCol(name string) ([]int64, error) {
	i := t.schema.ColIndex(name)
	if i < 0 {
		return nil, fmt.Errorf("engine: table %s: no column %q", t.name, name)
	}
	if t.schema[i].Type != Int64 {
		return nil, fmt.Errorf("engine: table %s: column %q is %v, not int64",
			t.name, name, t.schema[i].Type)
	}
	return t.ints[t.colSlot[i]], nil
}

// FloatCol returns the backing slice of a Float64 column.
func (t *Table) FloatCol(name string) ([]float64, error) {
	i := t.schema.ColIndex(name)
	if i < 0 {
		return nil, fmt.Errorf("engine: table %s: no column %q", t.name, name)
	}
	if t.schema[i].Type != Float64 {
		return nil, fmt.Errorf("engine: table %s: column %q is %v, not float64",
			t.name, name, t.schema[i].Type)
	}
	return t.floats[t.colSlot[i]], nil
}
