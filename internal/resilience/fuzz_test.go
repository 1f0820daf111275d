package resilience

import (
	"bytes"
	"testing"

	"sharedopt/internal/core"
	"sharedopt/internal/econ"
)

// FuzzReadJournal hammers the journal parser with mutated journal
// images. Whatever the bytes, the crash contract must hold: never
// panic, never yield a record past the first damage, always report a
// consumed prefix that re-parses cleanly and can be appended to.
func FuzzReadJournal(f *testing.F) {
	var m MemLog
	j := NewJournal(&m)
	for _, rec := range testRecords() {
		if err := j.Append(rec); err != nil {
			f.Fatal(err)
		}
	}
	valid := m.Bytes()
	f.Add([]byte(nil))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])                       // torn mid-record
	f.Add(append(append([]byte(nil), valid...), 'x')) // trailing garbage
	flipped := append([]byte(nil), valid...)
	flipped[12] ^= 0x40 // payload corruption under an intact frame
	f.Add(flipped)
	// A bid framed by the encode-once path, as ShardHost.Submit writes it.
	once, err := appendFrame(nil, uint64(len(testRecords()))+1, Record{Kind: KindSubstBid, User: 3,
		Set: []core.OptID{1, 2}, Start: 2, End: 2, Values: []econ.Money{econ.FromCents(75)}}.canonical())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(append([]byte(nil), valid...), once...))
	f.Add([]byte("00000000 {}\n"))
	f.Add([]byte("deadbeef {\"seq\":1,\"kind\":\"adv\"}\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, consumed, torn := ReadJournal(data)
		if consumed < 0 || consumed > len(data) {
			t.Fatalf("consumed %d of %d bytes", consumed, len(data))
		}
		if torn != (consumed < len(data)) {
			t.Fatalf("torn=%v but consumed %d of %d bytes", torn, consumed, len(data))
		}
		for i, rec := range recs {
			if rec.Seq != uint64(i+1) {
				t.Fatalf("record %d carries seq %d: yielded past a sequence break", i, rec.Seq)
			}
		}
		// The consumed prefix is exactly the valid records: re-parsing
		// it must be clean and identical.
		again, consumed2, torn2 := ReadJournal(data[:consumed])
		if torn2 || consumed2 != consumed || len(again) != len(recs) {
			t.Fatalf("consumed prefix does not re-parse cleanly: torn=%v consumed=%d/%d records=%d/%d",
				torn2, consumed2, consumed, len(again), len(recs))
		}
		for i := range recs {
			if !bytes.Equal(again[i].canonical(), recs[i].canonical()) || again[i].Seq != recs[i].Seq {
				t.Fatalf("record %d differs on re-parse", i)
			}
		}
		// The truncation point is appendable: framing a fresh record at
		// the next sequence number extends the parse by exactly one.
		next := Record{Seq: uint64(len(recs)) + 1, Kind: KindAdditiveBid,
			User: 9, Opt: 1, Start: 1, End: 1, Values: []econ.Money{econ.FromCents(100)}}
		frame, err := encodeRecord(next)
		if err != nil {
			t.Fatalf("encoding continuation record: %v", err)
		}
		extended := append(append([]byte(nil), data[:consumed]...), frame...)
		extrecs, _, extTorn := ReadJournal(extended)
		if extTorn {
			t.Fatal("appending a valid continuation record left the journal torn")
		}
		if len(extrecs) != len(recs)+1 {
			t.Fatalf("continuation parse yielded %d records, want %d", len(extrecs), len(recs)+1)
		}
	})
}
