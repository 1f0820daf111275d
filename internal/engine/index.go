package engine

import "fmt"

// HashIndex is an equality index over one Int64 column of a table,
// mapping key → row positions.
type HashIndex struct {
	table *Table
	m     map[int64][]int32
}

// BuildHashIndex constructs an index over the named Int64 column,
// charging one build per row to the meter.
func BuildHashIndex(t *Table, column string, meter *Meter) (*HashIndex, error) {
	col, err := t.IntCol(column)
	if err != nil {
		return nil, fmt.Errorf("engine: building index: %w", err)
	}
	idx := &HashIndex{table: t, m: make(map[int64][]int32, len(col))}
	for i, v := range col {
		idx.m[v] = append(idx.m[v], int32(i))
	}
	if meter != nil {
		meter.RowsBuilt += int64(len(col))
	}
	return idx, nil
}

// Table returns the indexed table.
func (ix *HashIndex) Table() *Table { return ix.table }

// Lookup returns the row positions with the given key, charging one probe
// to the meter. The returned slice must not be modified.
func (ix *HashIndex) Lookup(key int64, meter *Meter) []int32 {
	if meter != nil {
		meter.RowsProbed++
	}
	return ix.m[key]
}

// Keys returns the number of distinct keys.
func (ix *HashIndex) Keys() int { return len(ix.m) }
