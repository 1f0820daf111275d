package resilience

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"strconv"
	"sync"

	"sharedopt/internal/core"
	"sharedopt/internal/econ"
)

// RecordKind names one journal record type.
type RecordKind string

// The journal record kinds. A shard journal is one KindShardConfig
// followed by that shard's accepted bids and settlement markers.
const (
	KindShardConfig RecordKind = "shard"
	KindAdditiveBid RecordKind = "abid"
	KindSubstBid    RecordKind = "sbid"
	KindAdvanceSlot RecordKind = "adv"
	KindClosePeriod RecordKind = "close"
)

// OptCost is an (optimization, cost) pair as journaled in config
// records. Costs are exact integer micro-dollars.
type OptCost struct {
	ID   core.OptID `json:"id"`
	Cost econ.Money `json:"cost"`
}

// Record is one journal entry. Seq is assigned by the journal (strictly
// increasing from 1) and is the record's position in it; the remaining
// fields are populated per Kind:
//
//   - shard:   Game ("additive"/"substitutive"), Horizon, Opts (catalog),
//     Shard (this journal's index) and Shards (the tier's shard count)
//   - abid:    User, Opt, Start, End, Values
//   - sbid:    User, Set (substitute set), Start, End, Values
//   - adv/close: no payload — their effects are deterministic replays
//
// The JSON tags are the TCP wire's encoding; the journal line is the
// positional payload canonical describes.
type Record struct {
	Seq     uint64       `json:"seq"`
	Kind    RecordKind   `json:"kind"`
	Game    string       `json:"game,omitempty"`
	Horizon core.Slot    `json:"horizon,omitempty"`
	Opts    []OptCost    `json:"opts,omitempty"`
	Shard   int          `json:"shard,omitempty"`
	Shards  int          `json:"shards,omitempty"`
	User    core.UserID  `json:"user,omitempty"`
	Opt     core.OptID   `json:"opt,omitempty"`
	Set     []core.OptID `json:"set,omitempty"`
	Start   core.Slot    `json:"start,omitempty"`
	End     core.Slot    `json:"end,omitempty"`
	Values  []econ.Money `json:"values,omitempty"`
}

// canonical returns the record's journal payload: the kind token and
// the fields the kind carries, separated by single spaces, integers in
// decimal and money in micro-dollars:
//
//	shard <game> <horizon> <shard> <shards> <id>:<cost> …
//	a[<e>] <user> <opt> <start> <value> …
//	s[<e>] <user> <opt>,<opt>,… <start> <value> …
//	adv
//	close
//
// A bid line opens with its kind's initial, a for abid and s for sbid.
// A bid holds one value per slot from its start, so its end slot is
// not written: it is Start + len(Values) − 1, and a bid record whose End
// is not, or for which that sum overflows, is refused. A bid's values
// share one power of ten: e is the fewest trailing decimal zeros of a
// nonzero value (valueScale), written right after the initial unless it
// is 0, and the values are written divided by 10^e, so values of $0.17,
// $0.11 and $0.04 from slot 4 are "a4 <user> <opt> 4 17 11 4". An empty
// substitute set is written "-".
//
// Seq is not in the payload, so the payload is also the identity a
// duplicate submission shares with its first copy. A record the payload
// cannot carry back — an unknown kind, a field its kind does not carry,
// a bid whose end slot its values do not imply, or a game that is empty
// or holds a space or control byte — is refused: whatever is journaled
// decodes to the record it was.
func (r Record) canonical() ([]byte, error) {
	b := make([]byte, 0, 32+12*(len(r.Values)+len(r.Set)+2*len(r.Opts)))
	rest := r // the fields the kind does not carry, which must be zero
	switch r.Kind {
	case KindShardConfig:
		if !isToken(r.Game) {
			return nil, fmt.Errorf("resilience: game %q is not a journal token", r.Game)
		}
		b = append(append(append(b, r.Kind...), ' '), r.Game...)
		b = appendInt(b, int64(r.Horizon))
		b = appendInt(b, int64(r.Shard))
		b = appendInt(b, int64(r.Shards))
		for _, o := range r.Opts {
			b = appendInt(b, int64(o.ID))
			b = strconv.AppendInt(append(b, ':'), int64(o.Cost), 10)
		}
		rest.Game, rest.Horizon, rest.Opts, rest.Shard, rest.Shards = "", 0, nil, 0, 0
	case KindAdditiveBid, KindSubstBid:
		if end, ok := impliedEnd(r.Start, len(r.Values)); !ok || end != r.End {
			return nil, fmt.Errorf("resilience: %s record from slot %d to %d does not hold one value per slot (%d values)",
				r.Kind, r.Start, r.End, len(r.Values))
		}
		e := valueScale(r.Values)
		b = append(b, r.Kind[0])
		if e > 0 {
			b = strconv.AppendInt(b, int64(e), 10)
		}
		b = appendInt(b, int64(r.User))
		if r.Kind == KindAdditiveBid {
			b = appendInt(b, int64(r.Opt))
		} else {
			b = append(b, ' ')
			if len(r.Set) == 0 {
				b = append(b, '-')
			}
			for i, o := range r.Set {
				if i > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendInt(b, int64(o), 10)
			}
		}
		b = appendInt(b, int64(r.Start))
		p := pow10(e)
		for _, v := range r.Values {
			b = appendInt(b, int64(v)/p)
		}
		rest.User, rest.Opt, rest.Set, rest.Start, rest.End, rest.Values = 0, 0, nil, 0, 0, nil
	case KindAdvanceSlot, KindClosePeriod:
		b = append(b, r.Kind...)
	default:
		return nil, fmt.Errorf("resilience: unknown record kind %q", r.Kind)
	}
	if !rest.bare() {
		return nil, fmt.Errorf("resilience: %s record carries a field its kind does not", r.Kind)
	}
	return b, nil
}

// appendInt appends a space and n in decimal.
func appendInt(b []byte, n int64) []byte { return strconv.AppendInt(append(b, ' '), n, 10) }

// impliedEnd returns the end slot of a bid holding n values from start,
// start + n − 1, and whether that sum is a Slot rather than an
// overflow.
func impliedEnd(start core.Slot, n int) (core.Slot, bool) {
	d := core.Slot(n - 1)
	end := start + d
	return end, (end < start) == (d < 0)
}

// maxValueScale is the largest exponent a bid line can carry: 10^18 is
// the largest power of ten in an int64.
const maxValueScale = 18

// valueScale returns the exponent e under which a bid's values are
// written: the fewest trailing decimal zeros of a nonzero value, or 0
// when no value is nonzero. Writing e costs at most two bytes and
// saves at least e on every nonzero value, so it never lengthens a
// line.
func valueScale(values []econ.Money) int {
	e, p, nonzero := maxValueScale, pow10(maxValueScale), false
	for _, v := range values {
		if v == 0 {
			continue
		}
		nonzero = true
		for int64(v)%p != 0 {
			e, p = e-1, p/10
		}
		if e == 0 {
			return 0
		}
	}
	if !nonzero {
		return 0
	}
	return e
}

// pow10 returns 10^e for 0 ≤ e ≤ maxValueScale.
func pow10(e int) int64 {
	p := int64(1)
	for range e {
		p *= 10
	}
	return p
}

// isToken reports whether s can stand as one payload field: non-empty,
// with no space or control byte.
func isToken(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] <= ' ' || s[i] == 0x7f {
			return false
		}
	}
	return s != ""
}

// bare reports whether r carries nothing but its Kind and Seq.
func (r Record) bare() bool {
	return r.Game == "" && r.Horizon == 0 && len(r.Opts) == 0 && r.Shard == 0 && r.Shards == 0 &&
		r.User == 0 && r.Opt == 0 && len(r.Set) == 0 && r.Start == 0 && r.End == 0 && len(r.Values) == 0
}

// parsePayload decodes a canonical payload. It accepts exactly the
// bytes canonical writes: a payload that does not re-encode to itself
// (a leading zero, a plus sign, a doubled space, an out-of-range
// number, a scaled value that overflows, a value scale canonical would
// not write, an end slot past the last Slot) is refused, so each record
// has one journal line.
func parsePayload(p []byte) (Record, error) {
	f := bytes.Split(p, []byte{' '})
	rec := Record{Kind: RecordKind(f[0])}
	var err error
	num := func(b []byte) int64 {
		n, e := strconv.ParseInt(string(b), 10, 64)
		if e != nil && err == nil {
			err = e
		}
		return n
	}
	switch {
	case rec.Kind == KindShardConfig:
		if len(f) < 5 {
			return Record{}, errors.New("resilience: short shard record")
		}
		rec.Game = string(f[1])
		rec.Horizon, rec.Shard, rec.Shards = core.Slot(num(f[2])), int(num(f[3])), int(num(f[4]))
		for _, t := range f[5:] {
			id, cost, ok := bytes.Cut(t, []byte{':'})
			if !ok {
				return Record{}, fmt.Errorf("resilience: malformed catalog entry %q", t)
			}
			rec.Opts = append(rec.Opts, OptCost{ID: core.OptID(num(id)), Cost: econ.Money(num(cost))})
		}
	case rec.Kind == KindAdvanceSlot || rec.Kind == KindClosePeriod:
	case len(f[0]) > 0 && (f[0][0] == 'a' || f[0][0] == 's'):
		rec.Kind = KindAdditiveBid
		if f[0][0] == 's' {
			rec.Kind = KindSubstBid
		}
		if len(f) < 4 {
			return Record{}, fmt.Errorf("resilience: short %s record", rec.Kind)
		}
		scale := int64(1)
		if len(f[0]) > 1 {
			e := num(f[0][1:])
			if e < 0 || e > maxValueScale {
				return Record{}, fmt.Errorf("resilience: %s record value scale %q: %w", rec.Kind, f[0], strconv.ErrRange)
			}
			scale = pow10(int(e))
		}
		rec.User = core.UserID(num(f[1]))
		if rec.Kind == KindAdditiveBid {
			rec.Opt = core.OptID(num(f[2]))
		} else if string(f[2]) != "-" {
			for _, t := range bytes.Split(f[2], []byte{','}) {
				rec.Set = append(rec.Set, core.OptID(num(t)))
			}
		}
		rec.Start = core.Slot(num(f[3]))
		values := f[4:]
		end, ok := impliedEnd(rec.Start, len(values))
		if !ok {
			return Record{}, fmt.Errorf("resilience: %s record of %d values from slot %d ends past the last slot: %w",
				rec.Kind, len(values), rec.Start, strconv.ErrRange)
		}
		rec.End = end
		if len(values) > 0 {
			rec.Values = make([]econ.Money, len(values))
			for i, t := range values {
				v := num(t)
				if v > math.MaxInt64/scale || v < math.MinInt64/scale {
					return Record{}, fmt.Errorf("resilience: %s record value %s×%d: %w", rec.Kind, t, scale, strconv.ErrRange)
				}
				rec.Values[i] = econ.Money(v * scale)
			}
		}
	}
	if err != nil {
		return Record{}, fmt.Errorf("resilience: decoding %s record: %w", rec.Kind, err)
	}
	again, err := rec.canonical()
	if err != nil {
		return Record{}, err
	}
	if !bytes.Equal(again, p) {
		return Record{}, fmt.Errorf("resilience: %s record payload is not canonical", rec.Kind)
	}
	return rec, nil
}

// digest is the identity under which duplicate submissions are
// detected: the SHA-256 of the record's canonical payload, so two
// records share a digest exactly when they agree on every field but
// Seq, barring a SHA-256 collision. Among n distinct records the chance
// of any collision is below n²/2²⁵⁷, about 4·10⁻⁶⁰ for a billion bids.
func digest(canonical []byte) [sha256.Size]byte { return sha256.Sum256(canonical) }

// checksum is a journal line's checksum: the CRC-32 (IEEE) of the
// record's sequence number as 8 big-endian bytes followed by its
// payload. Binding the sequence makes a line valid only at its own
// position in the journal.
func checksum(seq uint64, payload []byte) [8]byte {
	var s [8]byte
	binary.BigEndian.PutUint64(s[:], seq)
	return hex8(crc32.Update(crc32.ChecksumIEEE(s[:]), crc32.IEEETable, payload))
}

// hex8 is a checksum as a line writes it: 8 lowercase hex digits.
func hex8(sum uint32) (h [8]byte) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], sum)
	hex.Encode(h[:], b[:])
	return h
}

// appendFrame appends one record, framed as the journal line at
// sequence seq, to dst, given the record's canonical payload:
//
//	<checksum> <payload>\n
//
// The record is encoded once whether it is digested, framed, or both.
// The checksum covers seq and the payload, so any torn, bit-rotted,
// short-written or misplaced line fails verification and is discarded
// on replay.
func appendFrame(dst []byte, seq uint64, canonical []byte) []byte {
	sum := checksum(seq, canonical)
	dst = append(append(dst, sum[:]...), ' ')
	return append(append(dst, canonical...), '\n')
}

// decodeLine parses one framed journal line (without the trailing
// newline) as the record at sequence seq, verifying the checksum.
func decodeLine(line []byte, seq uint64) (Record, error) {
	if len(line) < 10 || line[8] != ' ' {
		return Record{}, errors.New("resilience: malformed record frame")
	}
	payload := line[9:]
	if sum := checksum(seq, payload); !bytes.Equal(line[:8], sum[:]) {
		return Record{}, fmt.Errorf("resilience: checksum mismatch at record %d (line %q, computed %s)", seq, line[:8], sum[:])
	}
	rec, err := parsePayload(payload)
	if err != nil {
		return Record{}, err
	}
	rec.Seq = seq
	return rec, nil
}

// ReadJournal parses a journal image into its longest valid record
// prefix. A record is valid if it is newline-terminated, its checksum
// matches at the next sequence number of the chain 1, 2, 3, …, and its
// payload is canonical — anything else ends the scan there. consumed is
// the byte offset of the end of the last valid record (the truncation
// point for a log that will be appended to again), and torn reports
// whether trailing bytes were discarded. ReadJournal never fails on a
// damaged tail; that is the crash contract, not an error.
func ReadJournal(data []byte) (recs []Record, consumed int, torn bool) {
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // unterminated tail: a write died mid-record
		}
		rec, err := decodeLine(data[off:off+nl], uint64(len(recs))+1)
		if err != nil {
			break
		}
		recs = append(recs, rec)
		off += nl + 1
	}
	return recs, off, off < len(data)
}

// ErrJournalFormat is returned by OpenFileLog for a journal written in
// a line format this version does not read: the JSON lines of earlier
// versions (`<crc32-hex8> <json>\n`, the checksum over the JSON alone),
// or text bid lines of earlier versions, which open with "abid" or
// "sbid" and write the end slot, with values unscaled or behind an
// "x<e>" token (`abid 7 1 1 2 x4 17 4`). The file is left as it was.
var ErrJournalFormat = errors.New("resilience: journal is in a retired line format")

// retiredLine reports whether tail, the bytes after a journal's valid
// record prefix, opens with a complete line whose checksum verifies —
// at seq, or over the payload alone as JSON lines were framed — although
// the line did not decode. Such a line holds an intact record of a
// retired format. A crash cannot leave one: a torn write ends in a line
// with no newline, and damage fails the checksum.
func retiredLine(tail []byte, seq uint64) bool {
	nl := bytes.IndexByte(tail, '\n')
	if nl < 10 || tail[8] != ' ' {
		return false
	}
	payload := tail[9:nl]
	atSeq, alone := checksum(seq, payload), hex8(crc32.ChecksumIEEE(payload))
	return bytes.Equal(tail[:8], atSeq[:]) || bytes.Equal(tail[:8], alone[:])
}

// ErrJournalBroken wraps the first append failure of a journal: once a
// write fails the in-memory state may be ahead of the durable log, so
// the journal refuses all further appends and the owning shard must be
// discarded and rebuilt with RecoverShardHost or RecoverShardedService.
var ErrJournalBroken = errors.New("resilience: journal broken by an earlier write failure")

// Journal appends checksummed records to an io.Writer (fail-stop: the
// first write error wedges it permanently). It is safe for concurrent
// use. An append is two steps: enqueue assigns the next sequence number
// and frames the record into a pending buffer, and waitDurable blocks
// until that sequence number has been written. A waiter that finds no
// write in progress becomes the flusher and writes every record pending
// at that moment as one Write call — one fsync on a FileLog — while
// records enqueued meanwhile wait for the next group. The writer can be
// anything — *MemLog and *FileLog are the two provided implementations
// — but each group is exactly one Write call, in sequence order, so a
// crash can tear at most the final group.
type Journal struct {
	mu       sync.Mutex
	w        io.Writer
	seq      uint64 // last sequence number assigned
	durable  uint64 // last sequence number written
	pending  []byte // framed records after the group being written
	spare    []byte // the previous group's buffer, reused for the next
	writing  *group // the group being written, or nil
	released bool   // the owner is done appending; keep no spare buffer
	err      error
}

// group is one Write of records up to last. Its waiters block on done,
// which is closed once the write has returned and err is set, so they
// learn the outcome without taking the journal lock again.
type group struct {
	last uint64
	done chan struct{}
	err  error
}

// NewJournal returns a journal appending to w starting at sequence 1.
func NewJournal(w io.Writer) *Journal { return NewJournalAt(w, 0) }

// NewJournalAt returns a journal appending to w whose next record gets
// sequence seq+1 — the continuation constructor recovery uses after
// replaying seq records.
func NewJournalAt(w io.Writer, seq uint64) *Journal {
	return &Journal{w: w, seq: seq, durable: seq}
}

// Append assigns the next sequence number to rec and writes it durably.
// A record the journal line cannot carry (see Record.canonical) is
// refused before anything is enqueued, and the journal stays usable. A
// short write (n < len with a nil error, from a buggy or faulty writer)
// is promoted to io.ErrShortWrite. Any write failure wedges the
// journal: the record may be partially on disk, so nothing further may
// be appended after it.
func (j *Journal) Append(rec Record) error {
	seq, err := j.enqueueRecord(rec)
	if err != nil {
		return err
	}
	return j.waitDurable(seq)
}

// enqueueRecord encodes rec and enqueues it, refusing a record the
// journal line cannot carry.
func (j *Journal) enqueueRecord(rec Record) (uint64, error) {
	canonical, err := rec.canonical()
	if err != nil {
		return 0, err
	}
	return j.enqueue(canonical)
}

// enqueue frames a record, given as the payload Record.canonical
// returned for it, into the pending group under the next sequence
// number and returns that number. Nothing is written: the record is
// durable once waitDurable(seq) returns nil.
func (j *Journal) enqueue(canonical []byte) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return 0, fmt.Errorf("%w: %w", ErrJournalBroken, j.err)
	}
	j.seq++
	j.pending = appendFrame(j.pending, j.seq, canonical)
	return j.seq, nil
}

// waitDurable blocks until record seq has been written, flushing the
// pending group itself when no write is in progress. It fails if the
// journal wedged before seq was written: the group that held seq, or an
// earlier one, failed, so seq must not be acknowledged.
func (j *Journal) waitDurable(seq uint64) error {
	j.mu.Lock()
	for {
		g := j.writing
		switch {
		case seq <= j.durable:
			j.mu.Unlock()
			return nil
		case j.err != nil:
			err := j.err
			j.mu.Unlock()
			return fmt.Errorf("resilience: journal append: %w", err)
		case g == nil:
			j.flush()
			continue
		}
		j.mu.Unlock()
		<-g.done
		if seq <= g.last {
			if g.err != nil {
				return fmt.Errorf("resilience: journal append: %w", g.err)
			}
			return nil
		}
		j.mu.Lock() // seq is pending: flush it once the write ahead returns
	}
}

// flush writes the pending records as one group. It is called with j.mu
// held and releases it for the write.
func (j *Journal) flush() {
	g := &group{last: j.seq, done: make(chan struct{})}
	buf := j.pending
	j.pending, j.spare, j.writing = j.spare[:0], nil, g
	j.mu.Unlock()
	n, err := j.w.Write(buf)
	if err == nil && n < len(buf) {
		err = io.ErrShortWrite
	}
	j.mu.Lock()
	j.writing, g.err = nil, err
	if err != nil {
		j.err = err
	} else {
		j.durable = g.last
	}
	if !j.released {
		j.spare = buf[:0]
	}
	close(g.done)
}

// release drops the spare group buffer and keeps none from later
// writes: the owner appends at most a final marker after it.
func (j *Journal) release() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.released, j.spare = true, nil
}

// Seq returns the sequence number of the last enqueued record, which may
// still be waiting in the pending group.
func (j *Journal) Seq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Err returns the write failure that wedged the journal, or nil.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// MemLog is the in-memory journal target: an append-only byte buffer
// safe for concurrent use, with snapshot and truncate hooks for crash
// simulation.
type MemLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

// Write appends p to the log.
func (m *MemLog) Write(p []byte) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.buf.Write(p)
}

// Bytes returns a copy of the log contents.
func (m *MemLog) Bytes() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]byte(nil), m.buf.Bytes()...)
}

// Len returns the current log length in bytes.
func (m *MemLog) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.buf.Len()
}

// Truncate discards all but the first n bytes — the recovery step that
// drops a torn tail before appending resumes.
func (m *MemLog) Truncate(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.buf.Truncate(n)
}

// FileLog is the file-backed journal target. Every Write — one group of
// records — is followed by an fsync, so an acknowledged record survives
// a process kill; the checksummed framing handles the torn writes a
// mid-group kill leaves behind.
type FileLog struct {
	mu sync.Mutex
	f  *os.File
}

// OpenFileLog opens (creating if absent) the journal at path, parses its
// longest valid record prefix, truncates any torn tail, and returns the
// log positioned for appends together with the recovered records and
// whether a tail was discarded. A journal in a retired line format is
// refused with ErrJournalFormat and left untouched: its records are
// intact, not torn.
func OpenFileLog(path string) (*FileLog, []Record, bool, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, false, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, false, err
	}
	recs, consumed, torn := ReadJournal(data)
	if torn && retiredLine(data[consumed:], uint64(len(recs))+1) {
		f.Close()
		return nil, nil, false, fmt.Errorf("%w: %s", ErrJournalFormat, path)
	}
	if torn {
		// ReadAll left the offset at the end of the file; appends resume
		// at the end of the valid prefix.
		if err := f.Truncate(int64(consumed)); err != nil {
			f.Close()
			return nil, nil, false, err
		}
		if _, err := f.Seek(int64(consumed), io.SeekStart); err != nil {
			f.Close()
			return nil, nil, false, err
		}
	}
	return &FileLog{f: f}, recs, torn, nil
}

// Write appends p and syncs it to stable storage.
func (l *FileLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n, err := l.f.Write(p)
	if err != nil {
		return n, err
	}
	return n, l.f.Sync()
}

// Close closes the underlying file.
func (l *FileLog) Close() error { return l.f.Close() }
