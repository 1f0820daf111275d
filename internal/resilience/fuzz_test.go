package resilience

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"testing"

	"sharedopt/internal/core"
	"sharedopt/internal/econ"
)

// FuzzReadJournal hammers the journal parser with mutated journal
// images. Whatever the bytes, the crash contract must hold: never
// panic, never yield a record past the first damage, always report a
// consumed prefix that re-parses cleanly and can be appended to. Every
// record yielded re-encodes to exactly the line it came from, so each
// record has one journal line.
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
	once := frameRecord(f, Record{Seq: uint64(len(testRecords())) + 1, Kind: KindSubstBid, User: 3,
		Set: []core.OptID{1, 2}, Start: 2, End: 2, Values: []econ.Money{econ.FromCents(75)}})
	f.Add(append(append([]byte(nil), valid...), once...))
	f.Add([]byte("00000000 {}\n"))
	f.Add([]byte("deadbeef {\"seq\":1,\"kind\":\"adv\"}\n"))
	f.Add([]byte(jsonJournal))
	// Payloads under valid checksums that are not canonical: a leading
	// zero, a plus sign, a doubled space, an empty set spelled "".
	for _, payload := range []string{"abid 07 1 1 1 5", "abid +7 1 1 1 5", "abid 7 1 1 1  5", "sbid 7  1 1 5", "adv "} {
		f.Add(appendFrame(nil, 1, []byte(payload)))
	}
	// A journal with unscaled bid values, and value scales canonical
	// does not write: x0, a non-maximal exponent, a token that does not
	// shorten the line, a token on no values, a scaled value that
	// overflows, an exponent past 10^18, no exponent, a leading zero.
	f.Add([]byte(unscaledJournal))
	for _, payload := range []string{"abid 7 1 1 1 x0 5", "abid 7 1 1 1 x4 10", "abid 7 1 1 1 x3 1", "abid 7 1 1 1 x4",
		"abid 7 1 1 1 x18 10", "abid 7 1 1 1 x19 0", "abid 7 1 1 1 x 5", "sbid 7 - 1 1 x04 5 5"} {
		f.Add(appendFrame(nil, 1, []byte(payload)))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, consumed, torn := ReadJournal(data)
		if consumed < 0 || consumed > len(data) {
			t.Fatalf("consumed %d of %d bytes", consumed, len(data))
		}
		if torn != (consumed < len(data)) {
			t.Fatalf("torn=%v but consumed %d of %d bytes", torn, consumed, len(data))
		}
		off := 0
		for i, rec := range recs {
			if rec.Seq != uint64(i+1) {
				t.Fatalf("record %d carries seq %d: yielded past a sequence break", i, rec.Seq)
			}
			line := data[off : off+bytes.IndexByte(data[off:], '\n')+1]
			if again := frameRecord(t, rec); !bytes.Equal(again, line) {
				t.Fatalf("record %d re-encodes to %q, read from %q", i, again, line)
			}
			off += len(line)
		}
		// The consumed prefix is exactly the valid records: re-parsing
		// it must be clean and identical.
		again, consumed2, torn2 := ReadJournal(data[:consumed])
		if torn2 || consumed2 != consumed || len(again) != len(recs) {
			t.Fatalf("consumed prefix does not re-parse cleanly: torn=%v consumed=%d/%d records=%d/%d",
				torn2, consumed2, consumed, len(again), len(recs))
		}
		for i := range recs {
			if !sameRecord(again[i], recs[i]) {
				t.Fatalf("record %d differs on re-parse", i)
			}
		}
		// The truncation point is appendable: framing a fresh record at
		// the next sequence number extends the parse by exactly one.
		next := Record{Seq: uint64(len(recs)) + 1, Kind: KindAdditiveBid,
			User: 9, Opt: 1, Start: 1, End: 1, Values: []econ.Money{econ.FromCents(100)}}
		extended := append(append([]byte(nil), data[:consumed]...), frameRecord(t, next)...)
		extrecs, _, extTorn := ReadJournal(extended)
		if extTorn {
			t.Fatal("appending a valid continuation record left the journal torn")
		}
		if len(extrecs) != len(recs)+1 {
			t.Fatalf("continuation parse yielded %d records, want %d", len(extrecs), len(recs)+1)
		}
	})
}

// FuzzRecordCodec drives structured records of every kind through
// appendFrame and ReadJournal: a record the codec accepts comes back
// equal, at any sequence number and nowhere else; one it refuses is a
// config record whose game is not a token. A bid's line is never
// longer than its values written unscaled, and every other spelling of
// its values (checkValueSpellings) is refused. Numbers are drawn from
// the whole int64 range, eight bytes each; set, values and catalog may
// be empty.
func FuzzRecordCodec(f *testing.F) {
	ints := func(ns ...int64) []byte {
		var b []byte
		for _, n := range ns {
			b = binary.LittleEndian.AppendUint64(b, uint64(n))
		}
		return b
	}
	f.Add(uint8(0), uint64(1), "additive", int64(3), int64(0), int64(1), int64(0), ints(1, 10_000_000))
	f.Add(uint8(0), uint64(1), "two words", int64(3), int64(0), int64(1), int64(0), []byte(nil))
	f.Add(uint8(1), uint64(2), "", int64(7), int64(1), int64(1), int64(2), ints(4_000_000, 4_000_000))
	f.Add(uint8(1), uint64(9), "", int64(-7), int64(-1), int64(0), int64(0), ints(math.MinInt64, math.MaxInt64, -1))
	f.Add(uint8(2), uint64(3), "", int64(0), int64(0), int64(0), int64(0), []byte(nil))
	f.Add(uint8(3), uint64(4), "", int64(0), int64(0), int64(0), int64(0), []byte(nil))
	f.Add(uint8(4), uint64(5), "", int64(8), int64(2), int64(2), int64(3), ints(2, 1, 2, 1_500_000, 0))
	f.Add(uint8(4), uint64(math.MaxUint64), "", int64(math.MaxInt64), int64(0), int64(1), int64(1), []byte(nil))
	f.Add(uint8(4), uint64(6), "", int64(1), int64(0), int64(1), int64(1), ints(0, -5))
	f.Add(uint8(1), uint64(7), "", int64(1), int64(2), int64(3), int64(5), ints(0, 0, 0))
	f.Add(uint8(1), uint64(8), "", int64(1), int64(2), int64(3), int64(6), ints(0, 170_000, 0, 40_000))
	f.Add(uint8(1), uint64(9), "", int64(1), int64(2), int64(3), int64(5), ints(9e18, -1e18, 0))
	f.Add(uint8(4), uint64(10), "", int64(2), int64(0), int64(1), int64(2), ints(0, math.MinInt64, math.MaxInt64))
	f.Add(uint8(4), uint64(11), "", int64(3), int64(0), int64(1), int64(3), ints(1, 4, -10_000, -2_500_000, -300))
	f.Add(uint8(1), uint64(12), "", int64(4), int64(1), int64(6), int64(6), ints(150))
	f.Add(uint8(1), uint64(13), "", int64(4), int64(1), int64(6), int64(7), ints(1000, 0))
	f.Add(uint8(1), uint64(14), "", int64(4), int64(1), int64(6), int64(6), ints(10_000))

	f.Fuzz(func(t *testing.T, kind uint8, seq uint64, game string, a, b, c, d int64, list []byte) {
		var nums []int64
		for ; len(list) >= 8; list = list[8:] {
			nums = append(nums, int64(binary.LittleEndian.Uint64(list)))
		}
		var rec Record
		switch kind % 5 {
		case 0:
			rec = Record{Kind: KindShardConfig, Game: game, Horizon: core.Slot(a), Shard: int(b), Shards: int(c)}
			for ; len(nums) >= 2; nums = nums[2:] {
				rec.Opts = append(rec.Opts, OptCost{ID: core.OptID(nums[0]), Cost: econ.Money(nums[1])})
			}
		case 1:
			rec = Record{Kind: KindAdditiveBid, User: core.UserID(a), Opt: core.OptID(b), Start: core.Slot(c), End: core.Slot(d)}
			for _, n := range nums {
				rec.Values = append(rec.Values, econ.Money(n))
			}
		case 2:
			rec = Record{Kind: KindAdvanceSlot}
		case 3:
			rec = Record{Kind: KindClosePeriod}
		case 4:
			// The first number is the set's size.
			rec = Record{Kind: KindSubstBid, User: core.UserID(a), Start: core.Slot(c), End: core.Slot(d)}
			if len(nums) > 0 {
				size := min(int(uint64(nums[0])%4), len(nums)-1)
				for _, n := range nums[1 : 1+size] {
					rec.Set = append(rec.Set, core.OptID(n))
				}
				for _, n := range nums[1+size:] {
					rec.Values = append(rec.Values, econ.Money(n))
				}
			}
		}
		canonical, err := rec.canonical()
		if err != nil {
			if rec.Kind == KindShardConfig && !isToken(game) {
				return
			}
			t.Fatalf("%+v refused: %v", rec, err)
		}
		if rec.Kind == KindShardConfig && !isToken(game) {
			t.Fatalf("game %q encoded as %q", game, canonical)
		}

		rec.Seq = 1
		recs, consumed, torn := ReadJournal(appendFrame(nil, 1, canonical))
		if torn || len(recs) != 1 || !sameRecord(recs[0], rec) {
			t.Fatalf("%+v read back as %+v (torn=%v, consumed %d)", rec, recs, torn, consumed)
		}
		rec.Seq = seq
		line := appendFrame(nil, seq, canonical)
		line = line[:len(line)-1]
		got, err := decodeLine(line, seq)
		if err != nil || !sameRecord(got, rec) {
			t.Fatalf("%+v at seq %d decoded as %+v, %v", rec, seq, got, err)
		}
		if _, err := decodeLine(line, seq+1); err == nil {
			t.Fatalf("line %q for seq %d decodes at seq %d", line, seq, seq+1)
		}
		if rec.Kind == KindAdditiveBid || rec.Kind == KindSubstBid {
			checkValueSpellings(t, rec, string(canonical))
		}
	})
}

// bidPayload spells a bid record's payload with the given value
// digits after token (none if empty), every field in decimal.
func bidPayload(rec Record, token string, values []int64) string {
	s := fmt.Sprintf("%s %d ", rec.Kind, rec.User)
	switch {
	case rec.Kind == KindAdditiveBid:
		s += strconv.FormatInt(int64(rec.Opt), 10)
	case len(rec.Set) == 0:
		s += "-"
	}
	for i, o := range rec.Set {
		if i > 0 {
			s += ","
		}
		s += strconv.FormatInt(int64(o), 10)
	}
	s += fmt.Sprintf(" %d %d", rec.Start, rec.End)
	if token != "" {
		s += " " + token
	}
	for _, v := range values {
		s += " " + strconv.FormatInt(v, 10)
	}
	return s
}

// scaled returns values divided by p.
func scaled(values []econ.Money, p int64) []int64 {
	out := make([]int64, len(values))
	for i, v := range values {
		out[i] = int64(v) / p
	}
	return out
}

// checkValueSpellings holds a bid's canonical payload to be the one
// exact spelling of its values the codec reads: never longer than the
// unscaled payload and equal to it unless shorter; every other exact
// spelling — x0, each exponent up to the values' trailing zeros, the
// unscaled one — refused; and a scaled value that overflows refused as
// out of range.
func checkValueSpellings(t *testing.T, rec Record, canonical string) {
	unscaled := bidPayload(rec, "", scaled(rec.Values, 1))
	if len(canonical) > len(unscaled) || len(canonical) == len(unscaled) && canonical != unscaled {
		t.Fatalf("%+v encodes as %q, not shorter than unscaled %q", rec, canonical, unscaled)
	}
	spellings := []string{unscaled, bidPayload(rec, "x0", scaled(rec.Values, 1))}
	divides := func(p int64) bool {
		return !slices.ContainsFunc(rec.Values, func(v econ.Money) bool { return int64(v)%p != 0 })
	}
	for e, p := 1, int64(10); e <= maxValueScale && divides(p); e, p = e+1, p*10 {
		spellings = append(spellings, bidPayload(rec, "x"+strconv.Itoa(e), scaled(rec.Values, p)))
	}
	if !slices.Contains(spellings, canonical) {
		t.Fatalf("%+v encodes as %q, none of its exact spellings %q", rec, canonical, spellings)
	}
	for _, s := range spellings {
		if _, err := parsePayload([]byte(s)); s != canonical && err == nil {
			t.Fatalf("%+v: non-canonical spelling %q decodes (canonical %q)", rec, s, canonical)
		}
	}
	if len(rec.Values) == 0 {
		return
	}
	e := max(valueScale(rec.Values), 1)
	p := pow10(e)
	for _, v := range []int64{math.MaxInt64/p + 1, math.MinInt64/p - 1} {
		values := scaled(rec.Values, p)
		values[0] = v
		over := bidPayload(rec, "x"+strconv.Itoa(e), values)
		if _, err := parsePayload([]byte(over)); !errors.Is(err, strconv.ErrRange) {
			t.Fatalf("%+v: overflowing spelling %q: %v, want a range error", rec, over, err)
		}
	}
}
