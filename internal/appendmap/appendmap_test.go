package appendmap

import (
	"encoding/binary"
	"math/rand/v2"
	"testing"
)

// sizes crosses every index growth (12→13, 24→25, 48→49, …, 768→769
// entries) and the chunk boundaries 255/256/257 and 512/513.
var sizes = []int{0, 1, 12, 13, 24, 25, 48, 49, 96, 97, 192, 193, 255, 256, 257, 384, 385, 512, 513, 768, 769, 1100}

// checkAgainst fails unless m holds exactly want's entries, in the
// insertion order order records, and misses every key in absent.
func checkAgainst[K comparable, V comparable](t *testing.T, m *Map[K, V], want map[K]V, order []K, absent []K) {
	t.Helper()
	if m.Len() != len(want) {
		t.Fatalf("Len %d, want %d", m.Len(), len(want))
	}
	for k, v := range want {
		if got, ok := m.Get(k); !ok || got != v {
			t.Fatalf("Get(%v) = %v, %v; want %v, true", k, got, ok, v)
		}
	}
	for _, k := range absent {
		if got, ok := m.Get(k); ok {
			t.Fatalf("Get(%v) of an absent key = %v, true", k, got)
		}
	}
	i := 0
	for k, v := range m.All() {
		if i >= len(order) || k != order[i] || v != want[k] {
			t.Fatalf("All entry %d = (%v, %v), want key %v in insertion order", i, k, v, order[i])
		}
		i++
	}
	if i != len(order) {
		t.Fatalf("All yielded %d entries, want %d", i, len(order))
	}
}

// A map filled with Puts agrees with a Go map at every size that
// crosses an index growth or a chunk boundary, before and after Clip,
// and keeps working after Clip.
func TestMatchesGoMap(t *testing.T) {
	for _, n := range sizes {
		var m Map[int, int]
		want := map[int]int{}
		var order []int
		r := rand.New(rand.NewPCG(uint64(n), 1))
		for len(order) < n {
			k := 0 // the zero key first, then negative and positive keys
			if len(order) > 0 {
				k = r.IntN(8*n) - 4*n
			}
			if _, dup := want[k]; dup {
				continue
			}
			v := r.Int()
			m.Put(k, v)
			want[k] = v
			order = append(order, k)
		}
		absent := []int{-1 - 8*n, 8*n + 1, 1 << 40}
		checkAgainst(t, &m, want, order, absent)
		m.Clip()
		checkAgainst(t, &m, want, order, absent)
		m.Put(1<<41, 7)
		want[1<<41] = 7
		order = append(order, 1<<41)
		checkAgainst(t, &m, want, order, absent)
	}
}

// Digest-shaped keys that differ only in their last two bytes (the
// first 256 only in the last byte), the zero key among them, are told
// apart at every growth and chunk boundary.
func TestDigestKeysDifferingInLastByte(t *testing.T) {
	key := func(i int) [32]byte {
		var k [32]byte
		binary.BigEndian.PutUint16(k[30:], uint16(i))
		return k
	}
	var m Map[[32]byte, uint64]
	want := map[[32]byte]uint64{}
	var order [][32]byte
	for i := range 1100 {
		k := key(i)
		m.Put(k, uint64(i)+1)
		want[k] = uint64(i) + 1
		order = append(order, k)
		for _, n := range sizes {
			if i+1 == n {
				checkAgainst(t, &m, want, order, [][32]byte{key(i + 1), key(1 << 15)})
			}
		}
	}
	if v, ok := m.Get([32]byte{}); !ok || v != 1 {
		t.Fatalf("zero key: %v, %v", v, ok)
	}
}

// A random mix of Puts of new keys and Gets of old and new ones, over a
// key space small enough that misses and hits interleave, agrees with a
// Go map op by op.
func TestRandomOpsMatchGoMap(t *testing.T) {
	for seed := range uint64(20) {
		runOps(t, seed, 3000)
	}
}

// runOps drives a Map and a Go map with the same seeded ops and fails on
// the first disagreement.
func runOps(t *testing.T, seed uint64, ops int) {
	t.Helper()
	r := rand.New(rand.NewPCG(seed, 2))
	space := 1 + r.IntN(2*ops+1)
	var m Map[uint16, int32]
	want := map[uint16]int32{}
	var order []uint16
	for op := range ops {
		k := uint16(r.IntN(space))
		wv, wok := want[k]
		if gv, gok := m.Get(k); gv != wv || gok != wok {
			t.Fatalf("seed %d op %d: Get(%d) = %d, %v; want %d, %v", seed, op, k, gv, gok, wv, wok)
		}
		if !wok && r.IntN(3) > 0 {
			v := int32(r.Uint32())
			m.Put(k, v)
			want[k] = v
			order = append(order, k)
		}
		if r.IntN(500) == 0 {
			m.Clip()
		}
	}
	checkAgainst(t, &m, want, order, nil)
}

// FuzzAppendMap holds the map to a Go map over the op sequence a seed
// and length draw.
func FuzzAppendMap(f *testing.F) {
	for _, s := range []uint64{0, 1, 255, 513} {
		f.Add(s, uint16(s))
	}
	f.Fuzz(func(t *testing.T, seed uint64, ops uint16) {
		runOps(t, seed, int(ops%4096))
	})
}

// Two maps draw different seeds, so a probe order is not shared.
func TestSeedPerMap(t *testing.T) {
	var a, b Map[int, int]
	a.Put(1, 1)
	b.Put(1, 1)
	if a.seed == b.seed {
		t.Fatal("two maps share a hash seed")
	}
}

// Filling a map allocates per chunk and per index doubling, not per
// entry: past the first chunk, entries are written in place and never
// copied.
func TestPutAllocations(t *testing.T) {
	allocs := testing.AllocsPerRun(1, func() {
		var m Map[[32]byte, uint64]
		var k [32]byte
		for i := range 100_000 {
			binary.LittleEndian.PutUint64(k[:], uint64(i))
			m.Put(k, uint64(i))
		}
	})
	// 391 chunks, 6 allocations of the first chunk as it grows, about 10
	// of the chunk list, and the index's first allocation and 14
	// doublings: about 421.
	if allocs > 430 {
		t.Fatalf("100,000 Puts allocated %v times", allocs)
	}
}
