package resilience

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"sharedopt/internal/core"
	"sharedopt/internal/econ"
)

func testRecords() []Record {
	return []Record{
		{Kind: KindShardConfig, Game: "additive", Horizon: 3,
			Opts: []OptCost{{ID: 1, Cost: econ.FromDollars(10)}}, Shards: 1},
		{Kind: KindAdditiveBid, User: 7, Opt: 1, Start: 1, End: 2,
			Values: []econ.Money{econ.FromDollars(4), econ.FromDollars(4)}},
		{Kind: KindAdvanceSlot},
		{Kind: KindClosePeriod},
	}
}

// frameRecord is rec's journal line at sequence rec.Seq; rec must
// encode.
func frameRecord(tb testing.TB, rec Record) []byte {
	tb.Helper()
	canonical, err := rec.canonical()
	if err != nil {
		tb.Fatal(err)
	}
	return appendFrame(nil, rec.Seq, canonical)
}

func appendAll(t *testing.T, j *Journal, recs []Record) {
	t.Helper()
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
}

func TestJournalRoundTrip(t *testing.T) {
	var m MemLog
	j := NewJournal(&m)
	want := testRecords()
	appendAll(t, j, want)
	if got := j.Seq(); got != uint64(len(want)) {
		t.Fatalf("seq = %d, want %d", got, len(want))
	}
	recs, consumed, torn := ReadJournal(m.Bytes())
	if torn {
		t.Fatal("clean journal reported torn")
	}
	if consumed != m.Len() {
		t.Fatalf("consumed %d of %d bytes", consumed, m.Len())
	}
	if len(recs) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(recs), len(want))
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, rec.Seq)
		}
		want[i].Seq = rec.Seq
		if !sameRecord(rec, want[i]) {
			t.Fatalf("record %d round-trip mismatch:\n got %+v\nwant %+v", i, rec, want[i])
		}
	}
}

// TestJournalTornTail verifies that any truncation point inside the
// final record — from one byte up to one byte short of complete — is
// detected via framing+checksum and discarded back to the last complete
// record, for every record position in the journal.
func TestJournalTornTail(t *testing.T) {
	var m MemLog
	appendAll(t, NewJournal(&m), testRecords())
	data := m.Bytes()
	bounds := recordBoundaries(data)
	if len(bounds) != 4 {
		t.Fatalf("expected 4 record boundaries, got %d", len(bounds))
	}
	prev := 0
	for k, end := range bounds {
		for _, cut := range []int{prev + 1, (prev + end) / 2, end - 1} {
			if cut <= prev || cut >= end {
				continue
			}
			recs, consumed, torn := ReadJournal(data[:cut])
			if !torn {
				t.Fatalf("cut at %d (record %d): not reported torn", cut, k)
			}
			if len(recs) != k {
				t.Fatalf("cut at %d: recovered %d records, want %d", cut, len(recs), k)
			}
			if consumed != prev {
				t.Fatalf("cut at %d: consumed %d, want %d", cut, consumed, prev)
			}
		}
		prev = end
	}
}

// TestJournalBitRot flips one payload byte mid-journal: the checksum
// must reject the record and everything after it.
func TestJournalBitRot(t *testing.T) {
	var m MemLog
	appendAll(t, NewJournal(&m), testRecords())
	data := m.Bytes()
	bounds := recordBoundaries(data)
	// Corrupt a byte inside the second record's payload.
	data[bounds[0]+12] ^= 0x40
	recs, consumed, torn := ReadJournal(data)
	if !torn || len(recs) != 1 || consumed != bounds[0] {
		t.Fatalf("bit rot: got %d records, consumed=%d, torn=%v; want 1, %d, true",
			len(recs), consumed, torn, bounds[0])
	}
}

// TestJournalSeqGap rejects a record whose sequence number does not
// continue the chain, even with a valid checksum.
func TestJournalSeqGap(t *testing.T) {
	var m MemLog
	j := NewJournal(&m)
	appendAll(t, j, testRecords()[:2])
	// Append a record with a skipped sequence number by hand.
	frame := frameRecord(t, Record{Seq: 9, Kind: KindAdvanceSlot})
	if _, err := m.Write(frame); err != nil {
		t.Fatal(err)
	}
	recs, _, torn := ReadJournal(m.Bytes())
	if !torn || len(recs) != 2 {
		t.Fatalf("seq gap: got %d records, torn=%v; want 2, true", len(recs), torn)
	}
}

// TestJournalShortWriteWedges drives a short write (n < len, nil error)
// through Append: it must surface io.ErrShortWrite and wedge the
// journal permanently.
func TestJournalShortWriteWedges(t *testing.T) {
	var m MemLog
	fw := NewFaultWriter(&m, FaultPlan{Kind: FaultShort, Record: 1, Tear: 5})
	j := NewJournal(fw)
	recs := testRecords()
	if err := j.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	err := j.Append(recs[1])
	if !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("short write: got %v, want io.ErrShortWrite", err)
	}
	if err := j.Append(recs[2]); !errors.Is(err, ErrJournalBroken) {
		t.Fatalf("append after failure: got %v, want ErrJournalBroken", err)
	}
	// The log ends in 5 bytes of torn record; replay discards them.
	got, _, torn := ReadJournal(m.Bytes())
	if !torn || len(got) != 1 {
		t.Fatalf("after short write: %d records, torn=%v; want 1, true", len(got), torn)
	}
}

func TestFileLogReopenTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bids.journal")
	log, recs, torn, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || torn {
		t.Fatalf("fresh log: %d records, torn=%v", len(recs), torn)
	}
	j := NewJournal(log)
	appendAll(t, j, testRecords()[:3])
	// Tear the tail: append half a record's bytes directly.
	frame := frameRecord(t, Record{Seq: 4, Kind: KindClosePeriod})
	if _, err := log.f.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	log2, recs2, torn2, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if !torn2 || len(recs2) != 3 {
		t.Fatalf("reopen: %d records, torn=%v; want 3, true", len(recs2), torn2)
	}
	// Appending resumes cleanly after the truncation.
	j2 := NewJournalAt(log2, recs2[len(recs2)-1].Seq)
	if err := j2.Append(Record{Kind: KindClosePeriod}); err != nil {
		t.Fatal(err)
	}
	log3, recs3, torn3, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer log3.Close()
	if torn3 || len(recs3) != 4 {
		t.Fatalf("after resume: %d records, torn=%v; want 4, false", len(recs3), torn3)
	}
	if recs3[3].Seq != 4 || recs3[3].Kind != KindClosePeriod {
		t.Fatalf("resumed record = %+v", recs3[3])
	}
}

func TestMemLogTruncate(t *testing.T) {
	var m MemLog
	appendAll(t, NewJournal(&m), testRecords())
	bounds := recordBoundaries(m.Bytes())
	m.Truncate(bounds[1])
	recs, _, torn := ReadJournal(m.Bytes())
	if torn || len(recs) != 2 {
		t.Fatalf("after truncate: %d records, torn=%v", len(recs), torn)
	}
}

// recordBoundaries returns the byte offset just past each
// newline-terminated record of a journal image.
func recordBoundaries(data []byte) []int {
	var bounds []int
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break
		}
		off += nl + 1
		bounds = append(bounds, off)
	}
	return bounds
}

// TestFileLogReopenRejectsDuplicateSeq: a record repeating an earlier
// sequence number (a misbehaving writer replaying an old frame) ends
// the valid prefix at the duplicate, and reopen truncates it away.
func TestFileLogReopenRejectsDuplicateSeq(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bids.journal")
	log, _, _, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, NewJournal(log), testRecords()[:3])
	// Replay record 2's frame verbatim: checksum valid, seq duplicate.
	dup := testRecords()[1]
	dup.Seq = 2
	frame := frameRecord(t, dup)
	if _, err := log.f.Write(frame); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	log2, recs, torn, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if !torn || len(recs) != 3 {
		t.Fatalf("reopen over duplicate seq: %d records, torn=%v; want 3, true", len(recs), torn)
	}
	// The duplicate was truncated: appending continues at seq 4 and a
	// further reopen is clean.
	if err := NewJournalAt(log2, 3).Append(Record{Kind: KindClosePeriod}); err != nil {
		t.Fatal(err)
	}
	if err := log2.Close(); err != nil {
		t.Fatal(err)
	}
	log3, recs3, torn3, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer log3.Close()
	if torn3 || len(recs3) != 4 || recs3[3].Seq != 4 {
		t.Fatalf("after resume: %d records, torn=%v, last seq %d", len(recs3), torn3, recs3[len(recs3)-1].Seq)
	}
}

// TestFileLogEmptyFileRecovery: a zero-byte journal (crash before the
// config write reached the disk) reopens clean with no records, and a
// shard recovery over it reports ErrEmptyJournal rather than fabricating
// state.
func TestFileLogEmptyFileRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bids.journal")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	log, recs, torn, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if torn || len(recs) != 0 {
		t.Fatalf("empty file: %d records, torn=%v", len(recs), torn)
	}
	if _, err := RecoverShardHost(recs, log); !errors.Is(err, ErrEmptyJournal) {
		t.Fatalf("recovery over empty journal: %v, want ErrEmptyJournal", err)
	}
	// The empty log is a valid fresh target.
	appendAll(t, NewJournal(log), testRecords()[:2])
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs2, torn2, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if torn2 || len(recs2) != 2 {
		t.Fatalf("after seeding the empty file: %d records, torn=%v", len(recs2), torn2)
	}
}

// TestFileLogRepeatedTearAppendCycles: tear, reopen, append, tear
// again — every cycle must truncate exactly back to the last complete
// record and resume the sequence chain.
func TestFileLogRepeatedTearAppendCycles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bids.journal")
	log, _, _, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, NewJournal(log), testRecords()[:1])
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	for cycle := 1; cycle <= 3; cycle++ {
		log, recs, _, err := OpenFileLog(path)
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if len(recs) != cycle {
			t.Fatalf("cycle %d: reopened with %d records", cycle, len(recs))
		}
		j := NewJournalAt(log, recs[len(recs)-1].Seq)
		if err := j.Append(Record{Kind: KindAdvanceSlot}); err != nil {
			t.Fatalf("cycle %d append: %v", cycle, err)
		}
		// Tear: a partial frame for the record that never completes.
		frame := frameRecord(t, Record{Seq: uint64(cycle + 2), Kind: KindAdvanceSlot})
		if _, err := log.f.Write(frame[:1+cycle%len(frame)]); err != nil {
			t.Fatal(err)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
	}
	_, recs, torn, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if !torn || len(recs) != 4 {
		t.Fatalf("final reopen: %d records, torn=%v; want 4, true", len(recs), torn)
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d after %d tear cycles", i, rec.Seq, 3)
		}
	}
}

// TestJournalGolden pins the journal line format: one exact line of
// every kind at fixed sequence numbers, written through Journal.Append
// and appendFrame and decoded back. A change to these bytes is a format
// change, which old journals will not survive.
func TestJournalGolden(t *testing.T) {
	recs := append(testRecords(), Record{Kind: KindSubstBid, User: 8, Set: []core.OptID{1, 2},
		Start: 2, End: 3, Values: []econ.Money{econ.FromCents(150), 0}})
	const image = "f0bbed88 shard additive 3 0 1 1:10000000\n" +
		"42434be0 a6 7 1 1 4 4\n" +
		"88d0c5bf adv\n" +
		"41c6724d close\n" +
		"add237b8 s5 8 1,2 2 15 0\n"
	var m MemLog
	appendAll(t, NewJournal(&m), recs)
	if got := m.Bytes(); string(got) != image {
		t.Fatalf("journal image:\n got %q\nwant %q", got, image)
	}
	got, _, torn := ReadJournal([]byte(image))
	if torn || len(got) != len(recs) {
		t.Fatalf("golden image decoded to %d records, torn=%v", len(got), torn)
	}
	for i, rec := range got {
		recs[i].Seq = uint64(i + 1)
		if !sameRecord(rec, recs[i]) {
			t.Fatalf("golden record %d decoded to %+v, want %+v", i+1, rec, recs[i])
		}
	}

	// Lines away from the start of a journal: an empty substitute set
	// with all-zero values, extreme money, negative ids and costs, the
	// widest sequence, the last start slot, and value scales from the
	// largest to 1.
	for _, c := range []struct {
		rec  Record
		line string
	}{
		{Record{Seq: 4711, Kind: KindSubstBid, User: 3, Start: 1, End: 1, Values: []econ.Money{0}},
			"ada66b23 s 3 - 1 0\n"},
		{Record{Seq: math.MaxUint64, Kind: KindAdditiveBid, User: -2, Opt: 5, End: 1,
			Values: []econ.Money{math.MinInt64, math.MaxInt64}},
			"9d17f921 a -2 5 0 -9223372036854775808 9223372036854775807\n"},
		{Record{Seq: 10, Kind: KindShardConfig, Game: "substitutive", Horizon: 400, Shard: 3, Shards: 8,
			Opts: []OptCost{{1, 5}, {2, -1}, {3, 0}}},
			"b1aaf16e shard substitutive 400 3 8 1:5 2:-1 3:0\n"},
		{Record{Seq: 12, Kind: KindAdditiveBid, User: 1, Opt: 2, Start: 3, End: 5,
			Values: []econ.Money{9e18, -1e18, 0}},
			"fa5d081a a18 1 2 3 9 -1 0\n"},
		{Record{Seq: 13, Kind: KindAdditiveBid, User: 4, Opt: 1, Start: 6, End: 7,
			Values: []econ.Money{1000, 0}},
			"9e6fd4b0 a3 4 1 6 1 0\n"},
		{Record{Seq: 14, Kind: KindAdditiveBid, User: 12342, Opt: 3, Start: 3, End: 3,
			Values: []econ.Money{econ.FromCents(2)}},
			"1d3d0e0c a4 12342 3 3 2\n"},
		{Record{Seq: 15, Kind: KindSubstBid, User: 5, Set: []core.OptID{2, 4}, Start: 1, End: 2,
			Values: []econ.Money{econ.FromCents(-17), econ.FromCents(-4)}},
			"7b82b9af s4 5 2,4 1 -17 -4\n"},
		{Record{Seq: 16, Kind: KindAdditiveBid, User: 1, Opt: 1, Start: math.MaxInt64, End: math.MaxInt64,
			Values: []econ.Money{5}},
			"722f513d a 1 1 9223372036854775807 5\n"},
		{Record{Seq: 17, Kind: KindAdditiveBid, User: 1, Opt: 1, Start: 2, End: 2, Values: []econ.Money{150}},
			"a3936e89 a1 1 1 2 15\n"},
	} {
		if got := frameRecord(t, c.rec); string(got) != c.line {
			t.Fatalf("%s record at seq %d:\n got %q\nwant %q", c.rec.Kind, c.rec.Seq, got, c.line)
		}
		rec, err := decodeLine([]byte(c.line[:len(c.line)-1]), c.rec.Seq)
		if err != nil || !sameRecord(rec, c.rec) {
			t.Fatalf("decoding %q: %+v, %v", c.line, rec, err)
		}
	}
}

// sameRecord reports whether two records are equal, an empty slice
// equal to a nil one.
func sameRecord(a, b Record) bool {
	return a.Seq == b.Seq && a.Kind == b.Kind && a.Game == b.Game && a.Horizon == b.Horizon &&
		slices.Equal(a.Opts, b.Opts) && a.Shard == b.Shard && a.Shards == b.Shards &&
		a.User == b.User && a.Opt == b.Opt && slices.Equal(a.Set, b.Set) &&
		a.Start == b.Start && a.End == b.End && slices.Equal(a.Values, b.Values)
}

// TestJournalRefusesUnencodableRecord: a record whose line would not
// decode back to it is refused before it is enqueued, so nothing is
// journaled that recovery would discard as a torn tail, and the journal
// stays usable.
func TestJournalRefusesUnencodableRecord(t *testing.T) {
	cfg := testRecords()[0]
	spaced, newline, empty, control := cfg, cfg, cfg, cfg
	spaced.Game, newline.Game, empty.Game, control.Game = "two words", "a\nb", "", "a\tb"
	for name, rec := range map[string]Record{
		"unknown kind":         {Kind: "bogus"},
		"game with space":      spaced,
		"game with newline":    newline,
		"empty game":           empty,
		"game with control":    control,
		"abid with set":        {Kind: KindAdditiveBid, User: 1, Set: []core.OptID{1}},
		"sbid with opt":        {Kind: KindSubstBid, User: 1, Opt: 2},
		"adv with user":        {Kind: KindAdvanceSlot, User: 1},
		"close with values":    {Kind: KindClosePeriod, Values: []econ.Money{1}},
		"shard with bid end":   {Kind: KindShardConfig, Game: "additive", End: 1},
		"shard with user set":  {Kind: KindShardConfig, Game: "additive", User: 4},
		"abid past its values": {Kind: KindAdditiveBid, User: 1, Opt: 1, Start: 1, End: 2, Values: []econ.Money{1}},
		"sbid short of values": {Kind: KindSubstBid, User: 1, Start: 1, End: 1, Values: []econ.Money{1, 2}},
		"abid with no values":  {Kind: KindAdditiveBid, User: 1, Opt: 1, Start: 1, End: 1},
		"abid ending past the last slot": {Kind: KindAdditiveBid, User: 1, Opt: 1, Start: math.MaxInt64,
			End: math.MinInt64, Values: []econ.Money{1, 2}},
		"sbid ending before the first slot": {Kind: KindSubstBid, User: 1, Start: math.MinInt64, End: math.MaxInt64},
	} {
		var m MemLog
		j := NewJournal(&m)
		err := j.Append(rec)
		if err == nil || errors.Is(err, ErrJournalBroken) {
			t.Fatalf("%s: Append = %v, want a codec refusal", name, err)
		}
		if j.Err() != nil || j.Seq() != 0 || m.Len() != 0 {
			t.Fatalf("%s: refusal left err=%v seq=%d and %d bytes", name, j.Err(), j.Seq(), m.Len())
		}
		if err := j.Append(Record{Kind: KindAdvanceSlot}); err != nil {
			t.Fatalf("%s: append after the refusal: %v", name, err)
		}
	}
}

// jsonJournal is a journal in the retired JSON line format, as the
// previous encoder wrote testRecords followed by one substitutive bid.
const jsonJournal = "edf551c2 {\"seq\":1,\"kind\":\"shard\",\"game\":\"additive\",\"horizon\":3,\"opts\":[{\"id\":1,\"cost\":10000000}],\"shards\":1}\n" +
	"d062f309 {\"seq\":2,\"kind\":\"abid\",\"user\":7,\"opt\":1,\"start\":1,\"end\":2,\"values\":[4000000,4000000]}\n" +
	"3d8299bc {\"seq\":3,\"kind\":\"adv\"}\n" +
	"5e562e7b {\"seq\":4,\"kind\":\"close\"}\n" +
	"bb9b4af1 {\"seq\":5,\"kind\":\"sbid\",\"user\":8,\"set\":[1,2],\"start\":2,\"end\":3,\"values\":[1500000,0]}\n"

// requireFormatRefused writes image to path and requires OpenFileLog to
// refuse it with ErrJournalFormat and leave it byte-identical.
func requireFormatRefused(t *testing.T, path, image string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(image), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := OpenFileLog(path); !errors.Is(err, ErrJournalFormat) {
		t.Fatalf("OpenFileLog(%q) = %v, want ErrJournalFormat", image, err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != image {
		t.Fatalf("refused journal changed: %q, %v", got, err)
	}
}

// TestOpenFileLogRefusesJSONJournal: a journal in the retired JSON
// format holds intact records, not a torn tail. OpenFileLog refuses it
// with ErrJournalFormat and leaves its bytes as they were, whole or
// torn after its first line; a torn or bit-rotted first line of the
// current format still truncates.
func TestOpenFileLogRefusesJSONJournal(t *testing.T) {
	dir := t.TempDir()
	for _, image := range []string{jsonJournal, jsonJournal[:len(jsonJournal)-20]} {
		requireFormatRefused(t, filepath.Join(dir, "json.journal"), image)
	}

	line := frameRecord(t, Record{Seq: 1, Kind: KindShardConfig, Game: "additive", Horizon: 3, Shards: 1,
		Opts: []OptCost{{ID: 1, Cost: econ.FromDollars(10)}}})
	rotted := append([]byte(nil), line...)
	rotted[12] ^= 0x40
	for name, image := range map[string][]byte{"torn": line[:len(line)/2], "rotted": rotted} {
		path := filepath.Join(dir, name+".journal")
		if err := os.WriteFile(path, image, 0o644); err != nil {
			t.Fatal(err)
		}
		log, recs, torn, err := OpenFileLog(path)
		if err != nil {
			t.Fatalf("%s first line: %v", name, err)
		}
		log.Close()
		if fi, err := os.Stat(path); err != nil || !torn || len(recs) != 0 || fi.Size() != 0 {
			t.Fatalf("%s first line: %d records, torn=%v, stat %v %v; want 0, true, truncated", name, len(recs), torn, fi, err)
		}
	}
}

// unscaledJournal is a journal whose bid values are written in full
// micro-dollars, as the text codec wrote them before values were
// scaled: testRecords followed by one substitutive bid. Every line's
// checksum verifies at its sequence number.
const unscaledJournal = "f0bbed88 shard additive 3 0 1 1:10000000\n" +
	"9eceab9a abid 7 1 1 2 4000000 4000000\n" +
	"88d0c5bf adv\n" +
	"41c6724d close\n" +
	"0cc22b43 sbid 8 1,2 2 3 1500000 0\n"

// TestOpenFileLogRefusesUnscaledJournal: the bid lines of a journal
// with unscaled values are intact records that the current codec does
// not decode, not a torn tail. OpenFileLog refuses the journal with
// ErrJournalFormat and leaves it byte-identical, whole or torn after
// its first such line, instead of truncating it after the config line.
// A torn or bit-rotted bid line of the current format still truncates.
func TestOpenFileLogRefusesUnscaledJournal(t *testing.T) {
	dir := t.TempDir()
	for _, image := range []string{unscaledJournal, unscaledJournal[:len(unscaledJournal)-20]} {
		requireFormatRefused(t, filepath.Join(dir, "unscaled.journal"), image)
	}

	var m MemLog
	appendAll(t, NewJournal(&m), testRecords())
	image := m.Bytes()
	bid := bytes.IndexByte(image, '\n') + 1 // the config line ends here; the abid line follows
	rotted := append([]byte(nil), image...)
	rotted[bid+12] ^= 0x40
	for name, image := range map[string][]byte{"torn": image[:bid+15], "rotted": rotted} {
		path := filepath.Join(dir, name+".journal")
		if err := os.WriteFile(path, image, 0o644); err != nil {
			t.Fatal(err)
		}
		log, recs, torn, err := OpenFileLog(path)
		if err != nil {
			t.Fatalf("%s bid line: %v", name, err)
		}
		log.Close()
		if fi, err := os.Stat(path); err != nil || !torn || len(recs) != 1 || fi.Size() != int64(bid) {
			t.Fatalf("%s bid line: %d records, torn=%v, stat %v %v; want 1, true, truncated to %d", name, len(recs), torn, fi, err, bid)
		}
	}
}

// explicitEndJournal is a journal as the text codec wrote it before a
// bid's end slot was implied by its value count: bid lines open with
// "abid", write the end slot, and scale values behind an "x<e>" token.
// Every line's checksum verifies at its sequence number.
const explicitEndJournal = "f0bbed88 shard additive 3 0 1 1:10000000\n" +
	"62cf9679 abid 7 1 1 2 x4 17 4\n" +
	"88d0c5bf adv\n" +
	"ee78c445 abid 9 1 2 2 x4 11\n" +
	"8a9aa1e8 close\n"

// TestOpenFileLogRefusesExplicitEndJournal: bid lines that write their
// end slot are intact records of a retired format, not a torn tail.
// OpenFileLog refuses the journal with ErrJournalFormat and leaves it
// byte-identical, whole or torn after its first such line.
func TestOpenFileLogRefusesExplicitEndJournal(t *testing.T) {
	dir := t.TempDir()
	for _, image := range []string{explicitEndJournal, explicitEndJournal[:len(explicitEndJournal)-20]} {
		requireFormatRefused(t, filepath.Join(dir, "explicit-end.journal"), image)
	}
}
