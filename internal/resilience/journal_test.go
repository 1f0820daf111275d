package resilience

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
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

// encodeRecord frames rec as a journal line the plain way — marshal the
// record, checksum the payload, frame it — as the reference the
// encode-once path (appendFrame) must match byte for byte.
func encodeRecord(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("resilience: encoding record %d: %w", rec.Seq, err)
	}
	if bytes.IndexByte(payload, '\n') >= 0 {
		return nil, fmt.Errorf("resilience: record %d payload contains newline", rec.Seq)
	}
	out := make([]byte, 0, len(payload)+10)
	out = fmt.Appendf(out, "%08x ", crc32.ChecksumIEEE(payload))
	out = append(out, payload...)
	out = append(out, '\n')
	return out, nil
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
		if !bytes.Equal(rec.canonical(), want[i].canonical()) {
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
	frame, err := encodeRecord(Record{Seq: 9, Kind: KindAdvanceSlot})
	if err != nil {
		t.Fatal(err)
	}
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
	frame, err := encodeRecord(Record{Seq: 4, Kind: KindClosePeriod})
	if err != nil {
		t.Fatal(err)
	}
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
	frame, err := encodeRecord(dup)
	if err != nil {
		t.Fatal(err)
	}
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
		frame, err := encodeRecord(Record{Seq: uint64(cycle + 2), Kind: KindAdvanceSlot})
		if err != nil {
			t.Fatal(err)
		}
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

// TestEncodeCanonicalMatchesEncodeRecord pins the encode-once path: for
// every record kind and sequence widths from one digit to twenty, the
// line framed from a record's canonical payload equals encodeRecord of
// the record itself, and a journal's image equals the records framed by
// encodeRecord.
func TestEncodeCanonicalMatchesEncodeRecord(t *testing.T) {
	recs := append(testRecords(), Record{Kind: KindSubstBid, User: 8, Set: []core.OptID{1, 2},
		Start: 2, End: 3, Values: []econ.Money{econ.FromCents(150), 0}})
	kinds := map[RecordKind]bool{}
	for _, rec := range recs {
		kinds[rec.Kind] = true
		for _, seq := range []uint64{1, 9, 10, 4711, math.MaxUint64} {
			rec.Seq = seq
			want, err := encodeRecord(rec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := appendFrame(nil, seq, rec.canonical())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s record at seq %d:\nencode-once %q\nencodeRecord %q", rec.Kind, seq, got, want)
			}
		}
	}
	for _, k := range []RecordKind{KindShardConfig, KindAdditiveBid, KindSubstBid, KindAdvanceSlot, KindClosePeriod} {
		if !kinds[k] {
			t.Errorf("no %s record checked", k)
		}
	}

	var m MemLog
	var want []byte
	j := NewJournal(&m)
	for i, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
		rec.Seq = uint64(i + 1)
		line, err := encodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, line...)
	}
	if !bytes.Equal(m.Bytes(), want) {
		t.Fatalf("journal images differ:\nAppend       %q\nencodeRecord %q", m.Bytes(), want)
	}
	if _, err := appendFrame(nil, 1, []byte(`{"kind":"adv"}`)); err == nil {
		t.Fatal("a payload without the seq-0 prefix was framed")
	}
}
