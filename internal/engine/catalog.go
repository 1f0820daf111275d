package engine

import "fmt"

// MaterializedView is a precomputed table registered in a catalog,
// together with a hash index over its key column. Building one costs
// real metered work (it is the optimization whose price the mechanisms
// negotiate); once built, queries pay only index probes.
type MaterializedView struct {
	// Name identifies the view in the catalog.
	Name string
	// Data is the precomputed result.
	Data *Table
	// Index is a hash index over Data's key column.
	Index *HashIndex
	// BuildUnits records the metered work spent building the view, for
	// cost accounting.
	BuildUnits int64
}

// Catalog holds named materialized views.
type Catalog struct {
	views map[string]*MaterializedView
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{views: make(map[string]*MaterializedView)}
}

// AddView registers a materialized view.
func (c *Catalog) AddView(v *MaterializedView) error {
	if _, dup := c.views[v.Name]; dup {
		return fmt.Errorf("engine: duplicate view %q", v.Name)
	}
	c.views[v.Name] = v
	return nil
}

// View returns a materialized view by name.
func (c *Catalog) View(name string) (*MaterializedView, bool) {
	v, ok := c.views[name]
	return v, ok
}

// DropView removes a materialized view (e.g. when its subscription ends).
func (c *Catalog) DropView(name string) {
	delete(c.views, name)
}

// Materialize drains a query into a new view with a hash index on
// keyCol, metering the build work and recording it in the view. The
// drain is batch-native (ForEachBatch): emit units are charged exactly
// as Rows would charge them, plus one build unit per stored row.
func Materialize(name string, q *Query, keyCol string, meter *Meter) (*MaterializedView, error) {
	before := int64(0)
	if meter != nil {
		before = meter.WorkUnits()
	}
	t := NewTable(name, q.OutSchema())
	scratch := make(Row, len(q.OutSchema()))
	err := q.ForEachBatch(func(b *Batch) error {
		var innerErr error
		b.forEachActive(func(pos int) {
			if innerErr != nil {
				return
			}
			for c := range scratch {
				scratch[c] = b.Col(c).datum(pos)
			}
			innerErr = t.Append(scratch)
		})
		if innerErr != nil {
			return innerErr
		}
		if meter != nil {
			meter.RowsBuilt += int64(b.Len())
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("engine: materializing %q: %w", name, err)
	}
	idx, err := BuildHashIndex(t, keyCol, meter)
	if err != nil {
		return nil, err
	}
	var build int64
	if meter != nil {
		build = meter.WorkUnits() - before
	}
	return &MaterializedView{Name: name, Data: t, Index: idx, BuildUnits: build}, nil
}
