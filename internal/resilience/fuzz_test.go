package resilience

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
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
	for _, payload := range []string{"a 07 1 1 5", "a +7 1 1 5", "a 7 1 1  5", "s 7  1 5", "adv "} {
		f.Add(appendFrame(nil, 1, []byte(payload)))
	}
	// Journals with bid lines of earlier text codecs, and bid lines the
	// current codec does not write: the full kind name, a0, a
	// non-maximal scale, an end field behind which an x<e> token stands,
	// a scaled value that overflows, a scale past 10^18, a scale with a
	// leading zero, and an end slot past the last Slot (the last start
	// with two values, the first with none).
	f.Add([]byte(unscaledJournal))
	f.Add([]byte(explicitEndJournal))
	for _, payload := range []string{"abid 7 1 1 1 x4 5", "abid 7 1 1 1 5", "a0 7 1 1 5", "a3 7 1 1 10", "a 7 1 1 1 x4 5",
		"a18 7 1 1 10", "a19 7 1 1 0", "s04 7 - 1 5 5", "a 7 1 9223372036854775807 1 2", "s 7 - -9223372036854775808"} {
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
// config record whose game is not a token or a bid whose end slot is
// not its start plus its value count less one (or that sum overflows),
// which the decoder refuses too. A bid's line is at least 5 bytes
// shorter than the earlier codec's (explicitEndPayload), and every
// other spelling of its values (checkValueSpellings) is refused.
// Numbers are drawn from the whole int64 range, eight bytes each; set,
// values and catalog may be empty.
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
	f.Add(uint8(1), uint64(9), "", int64(-7), int64(-1), int64(0), int64(2), ints(math.MinInt64, math.MaxInt64, -1))
	f.Add(uint8(2), uint64(3), "", int64(0), int64(0), int64(0), int64(0), []byte(nil))
	f.Add(uint8(3), uint64(4), "", int64(0), int64(0), int64(0), int64(0), []byte(nil))
	f.Add(uint8(4), uint64(5), "", int64(8), int64(2), int64(2), int64(3), ints(2, 1, 2, 1_500_000, 0))
	f.Add(uint8(4), uint64(math.MaxUint64), "", int64(math.MaxInt64), int64(0), int64(1), int64(0), []byte(nil))
	f.Add(uint8(4), uint64(6), "", int64(1), int64(0), int64(1), int64(1), ints(0, -5))
	f.Add(uint8(1), uint64(7), "", int64(1), int64(2), int64(3), int64(5), ints(0, 0, 0))
	f.Add(uint8(1), uint64(8), "", int64(1), int64(2), int64(3), int64(6), ints(0, 170_000, 0, 40_000))
	f.Add(uint8(1), uint64(9), "", int64(1), int64(2), int64(3), int64(5), ints(9e18, -1e18, 0))
	f.Add(uint8(4), uint64(10), "", int64(2), int64(0), int64(1), int64(2), ints(0, math.MinInt64, math.MaxInt64))
	f.Add(uint8(4), uint64(11), "", int64(3), int64(0), int64(1), int64(3), ints(1, 4, -10_000, -2_500_000, -300))
	f.Add(uint8(1), uint64(12), "", int64(4), int64(1), int64(6), int64(6), ints(150))
	f.Add(uint8(1), uint64(13), "", int64(4), int64(1), int64(6), int64(7), ints(1000, 0))
	f.Add(uint8(1), uint64(14), "", int64(4), int64(1), int64(6), int64(6), ints(10_000))
	// e = 0; an end field one slot long and one short; the last start
	// slot, with one value and with two (an end past the last Slot);
	// the first start slot with no values (an end before it).
	f.Add(uint8(1), uint64(15), "", int64(4), int64(1), int64(6), int64(7), ints(170_001, 3))
	f.Add(uint8(1), uint64(16), "", int64(4), int64(1), int64(6), int64(8), ints(1, 2))
	f.Add(uint8(4), uint64(17), "", int64(4), int64(1), int64(6), int64(6), ints(1, 7, 10_000, 20_000))
	f.Add(uint8(1), uint64(18), "", int64(4), int64(1), int64(math.MaxInt64), int64(math.MaxInt64), ints(50_000))
	f.Add(uint8(4), uint64(19), "", int64(4), int64(1), int64(math.MaxInt64), int64(math.MinInt64), ints(0, 1, 2))
	f.Add(uint8(1), uint64(20), "", int64(4), int64(1), int64(math.MinInt64), int64(math.MaxInt64), []byte(nil))

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
		bid := rec.Kind == KindAdditiveBid || rec.Kind == KindSubstBid
		// A bid's end slot is Start + n − 1, which is a Slot unless it
		// passes MaxInt64 (n ≥ 2) or precedes MinInt64 (n = 0).
		n := int64(len(rec.Values))
		fits := n > 0 && c <= math.MaxInt64-(n-1) || n == 0 && c > math.MinInt64
		canonical, err := rec.canonical()
		switch {
		case rec.Kind == KindShardConfig && !isToken(game):
			if err == nil {
				t.Fatalf("game %q encoded as %q", game, canonical)
			}
			return
		case bid && (!fits || d != c+n-1):
			if err == nil {
				t.Fatalf("%+v, whose values do not fill its interval, encoded as %q", rec, canonical)
			}
			if !fits {
				spelled := bidPayload(rec, string(rec.Kind[:1]), false, scaled(rec.Values, 1))
				if _, err := parsePayload([]byte(spelled)); !errors.Is(err, strconv.ErrRange) {
					t.Fatalf("%q, whose end slot overflows, decoded with %v, want a range error", spelled, err)
				}
				return
			}
			rec.End = core.Slot(c + n - 1)
			if canonical, err = rec.canonical(); err != nil {
				t.Fatalf("%+v refused: %v", rec, err)
			}
		case err != nil:
			t.Fatalf("%+v refused: %v", rec, err)
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
		if bid {
			checkValueSpellings(t, rec, string(canonical))
		}
	})
}

// bidPayload spells a bid record's payload in the current layout with
// head as its kind token, the end slot after the start if withEnd, and
// the given value digits, every field in decimal.
func bidPayload(rec Record, head string, withEnd bool, values []int64) string {
	s := head + " " + strconv.FormatInt(int64(rec.User), 10) + " " + bidTarget(rec) + " " + strconv.FormatInt(int64(rec.Start), 10)
	if withEnd {
		s += " " + strconv.FormatInt(int64(rec.End), 10)
	}
	for _, v := range values {
		s += " " + strconv.FormatInt(v, 10)
	}
	return s
}

// bidTarget spells a bid's optimization, or its substitute set.
func bidTarget(rec Record) string {
	if rec.Kind == KindAdditiveBid {
		return strconv.FormatInt(int64(rec.Opt), 10)
	}
	if len(rec.Set) == 0 {
		return "-"
	}
	ids := make([]string, len(rec.Set))
	for i, o := range rec.Set {
		ids[i] = strconv.FormatInt(int64(o), 10)
	}
	return strings.Join(ids, ",")
}

// explicitEndPayload is a bid record's payload as the earlier text
// codec wrote it: the kind's full name, the end slot after the start,
// and the values divided by 10^e behind an "x<e>" token only when that
// shortened the line, e being the fewest trailing zeros of a nonzero
// value.
func explicitEndPayload(rec Record) string {
	e, p, nonzero := 18, int64(1e18), 0
	for _, v := range rec.Values {
		if v != 0 {
			nonzero++
			for int64(v)%p != 0 {
				e, p = e-1, p/10
			}
		}
	}
	s := fmt.Sprintf("%s %d %s %d %d", rec.Kind, rec.User, bidTarget(rec), rec.Start, rec.End)
	if nonzero*e <= len(" x")+len(strconv.Itoa(e)) {
		e, p = 0, 1
	} else {
		s += " x" + strconv.Itoa(e)
	}
	for _, v := range scaled(rec.Values, p) {
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
// exact spelling of its values the codec reads: at least 5 bytes
// shorter than the earlier codec's line, which is refused; every other
// exact spelling — a0, each scale up to the values' trailing zeros, the
// unscaled one — refused; the canonical line with its end slot written
// out read as some other record or refused; and a scaled value that
// overflows refused as out of range.
func checkValueSpellings(t *testing.T, rec Record, canonical string) {
	old := explicitEndPayload(rec)
	if len(canonical) > len(old)-5 {
		t.Fatalf("%+v encodes as %q, less than 5 bytes shorter than %q", rec, canonical, old)
	}
	if _, err := parsePayload([]byte(old)); err == nil {
		t.Fatalf("%+v: the earlier codec's line %q decodes", rec, old)
	}
	tag := string(rec.Kind[:1])
	spellings := []string{bidPayload(rec, tag, false, scaled(rec.Values, 1)), bidPayload(rec, tag+"0", false, scaled(rec.Values, 1))}
	divides := func(p int64) bool {
		return !slices.ContainsFunc(rec.Values, func(v econ.Money) bool { return int64(v)%p != 0 })
	}
	for e, p := 1, int64(10); e <= maxValueScale && divides(p); e, p = e+1, p*10 {
		spellings = append(spellings, bidPayload(rec, tag+strconv.Itoa(e), false, scaled(rec.Values, p)))
	}
	if !slices.Contains(spellings, canonical) {
		t.Fatalf("%+v encodes as %q, none of its exact spellings %q", rec, canonical, spellings)
	}
	for _, s := range spellings {
		if _, err := parsePayload([]byte(s)); s != canonical && err == nil {
			t.Fatalf("%+v: non-canonical spelling %q decodes (canonical %q)", rec, s, canonical)
		}
	}
	head, _, _ := strings.Cut(canonical, " ")
	e := valueScale(rec.Values)
	withEnd := bidPayload(rec, head, true, scaled(rec.Values, pow10(e)))
	if got, err := parsePayload([]byte(withEnd)); err == nil && sameRecord(got, Record{Kind: rec.Kind, User: rec.User,
		Opt: rec.Opt, Set: rec.Set, Start: rec.Start, End: rec.End, Values: rec.Values}) {
		t.Fatalf("%+v: spelled with its end slot, %q decodes to it", rec, withEnd)
	}
	if len(rec.Values) == 0 {
		return
	}
	e = max(e, 1)
	p := pow10(e)
	for _, v := range []int64{math.MaxInt64/p + 1, math.MinInt64/p - 1} {
		values := scaled(rec.Values, p)
		values[0] = v
		over := bidPayload(rec, tag+strconv.Itoa(e), false, values)
		if _, err := parsePayload([]byte(over)); !errors.Is(err, strconv.ErrRange) {
			t.Fatalf("%+v: overflowing spelling %q: %v, want a range error", rec, over, err)
		}
	}
}
