// Package appendmap is an insert-only hash map for entries that are
// never deleted and outlive the code that wrote them: a shard's dedup
// digests and a pricing game's payments.
//
// A Go map keeps each entry in a bucket with room to spare and doubles
// its buckets as it grows, so an entry that is never removed costs about
// twice its payload. Map keeps its entries in insertion order in
// fixed-size chunks that are never copied once full, and finds them
// through an open-addressed index of 4-byte ordinals. Growth rebuilds
// only the index.
//
// The index hashes keys with hash/maphash under a seed drawn per map, as
// a Go map does, so keys crafted to collide in one map do not collide in
// another. Every hit compares the whole key.
package appendmap

import (
	"hash/maphash"
	"iter"
	"math"
)

const (
	// chunkSize is the entry count of every full chunk. The first chunk
	// grows to it from firstChunk as a slice does; every later chunk is
	// allocated at this size.
	chunkSize  = 256
	chunkShift = 8
	firstChunk = 8
	// minIndex is the index length of a map's first entries.
	minIndex = 16
)

type entry[K comparable, V any] struct {
	k K
	v V
}

// Map is an insert-only map from K to V. The zero Map is empty and ready
// to use. A Map is not safe for concurrent use.
type Map[K comparable, V any] struct {
	seed maphash.Seed
	// chunks hold the entries in insertion order: entry i is
	// chunks[i/chunkSize][i%chunkSize], and every chunk but the last is
	// full.
	chunks [][]entry[K, V]
	// index holds, in each slot, one more than the ordinal of the entry
	// filed there, or 0 for an empty slot. Its length is a power of two
	// at least 4/3 of the entry count, and collisions probe linearly.
	index []uint32
	n     int
}

// Len returns the number of entries.
func (m *Map[K, V]) Len() int { return m.n }

// Get returns the value stored under k, and whether there is one.
func (m *Map[K, V]) Get(k K) (V, bool) {
	if m.n > 0 {
		mask := len(m.index) - 1
		for i := m.slot(k); m.index[i] != 0; i = (i + 1) & mask {
			if e := m.at(m.index[i] - 1); e.k == k {
				return e.v, true
			}
		}
	}
	var zero V
	return zero, false
}

// Put stores v under k, which must not be in the map already: Put does
// not look for it, so a second Put of a key leaves Get returning the
// first value. It panics when the map already holds 2³²−1 entries.
func (m *Map[K, V]) Put(k K, v V) {
	if m.n == math.MaxUint32 {
		panic("appendmap: map full")
	}
	if m.index == nil {
		m.seed = maphash.MakeSeed()
		m.index = make([]uint32, minIndex)
	} else if 4*(m.n+1) > 3*len(m.index) {
		m.grow()
	}
	m.push(entry[K, V]{k, v})
	m.n++
	m.file(k, uint32(m.n))
}

// All yields the entries in insertion order.
func (m *Map[K, V]) All() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		for _, c := range m.chunks {
			for _, e := range c {
				if !yield(e.k, e.v) {
					return
				}
			}
		}
	}
}

// Clip releases the last chunk's spare capacity, for a map that is done
// growing. A later Put still works.
func (m *Map[K, V]) Clip() {
	if last := len(m.chunks) - 1; last >= 0 && len(m.chunks[last]) < cap(m.chunks[last]) {
		m.chunks[last] = append([]entry[K, V](nil), m.chunks[last]...)
	}
	if len(m.chunks) < cap(m.chunks) {
		m.chunks = append([][]entry[K, V](nil), m.chunks...)
	}
}

// slot returns k's first index slot.
func (m *Map[K, V]) slot(k K) int {
	return int(maphash.Comparable(m.seed, k) & uint64(len(m.index)-1))
}

// at returns the entry with the given ordinal.
func (m *Map[K, V]) at(ord uint32) *entry[K, V] {
	return &m.chunks[ord>>chunkShift][ord&(chunkSize-1)]
}

// file records ordinal+1 in the first free slot of k's probe sequence.
func (m *Map[K, V]) file(k K, ord1 uint32) {
	mask := len(m.index) - 1
	i := m.slot(k)
	for m.index[i] != 0 {
		i = (i + 1) & mask
	}
	m.index[i] = ord1
}

// grow doubles the index and files every entry again.
func (m *Map[K, V]) grow() {
	m.index = make([]uint32, 2*len(m.index))
	var ord1 uint32
	for _, c := range m.chunks {
		for i := range c {
			ord1++
			m.file(c[i].k, ord1)
		}
	}
}

// push appends e to the last chunk, starting a new chunk when that one is
// full and growing the first while it is smaller than chunkSize.
func (m *Map[K, V]) push(e entry[K, V]) {
	last := len(m.chunks) - 1
	switch {
	case last < 0:
		m.chunks = append(m.chunks, make([]entry[K, V], 0, firstChunk))
		last = 0
	case len(m.chunks[last]) == chunkSize:
		m.chunks = append(m.chunks, make([]entry[K, V], 0, chunkSize))
		last++
	case len(m.chunks[last]) == cap(m.chunks[last]):
		c := m.chunks[last]
		m.chunks[last] = append(make([]entry[K, V], 0, min(2*cap(c), chunkSize)), c...)
	}
	m.chunks[last] = append(m.chunks[last], e)
}
