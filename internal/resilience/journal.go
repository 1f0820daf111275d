package resilience

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
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
// increasing from 1); the remaining fields are populated per Kind:
//
//   - shard:   Game ("additive"/"substitutive"), Horizon, Opts (catalog),
//     Shard (this journal's index) and Shards (the tier's shard count)
//   - abid:    User, Opt, Start, End, Values
//   - sbid:    User, Set (substitute set), Start, End, Values
//   - adv/close: no payload — their effects are deterministic replays
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

// canonicalPrefix opens every canonical payload: Seq is Record's first
// field and is never omitted, so the payload of the same record at any
// sequence N is `{"seq":N` followed by the canonical payload after this
// prefix.
const canonicalPrefix = `{"seq":0`

// canonical returns the record's JSON payload with the sequence number
// zeroed — the bytes a duplicate submission shares with its first copy.
func (r Record) canonical() []byte {
	r.Seq = 0
	payload, err := json.Marshal(r)
	if err != nil {
		// Record has no unmarshalable fields; this cannot happen.
		panic(err)
	}
	return payload
}

// digest is the identity under which duplicate submissions are
// detected: the SHA-256 of the record's canonical payload, so two
// records share a digest exactly when they agree on every field but
// Seq, barring a SHA-256 collision. Among n distinct records the chance
// of any collision is below n²/2²⁵⁷, about 4·10⁻⁶⁰ for a billion bids.
func digest(canonical []byte) [sha256.Size]byte { return sha256.Sum256(canonical) }

// appendFrame appends one record, framed as a journal line at sequence
// seq, to dst, given the record's canonical payload:
//
//	<crc32-ieee-hex8> <payload-json>\n
//
// The payload is the record's JSON with Seq set to seq — `{"seq":seq`
// followed by the canonical payload after canonicalPrefix — so a record
// is marshaled once whether it is digested, framed, or both. The
// checksum covers exactly the payload bytes, so any torn, bit-rotted or
// short-written tail fails verification and is discarded on replay. On
// error dst is returned unchanged.
func appendFrame(dst []byte, seq uint64, canonical []byte) ([]byte, error) {
	rest, ok := bytes.CutPrefix(canonical, []byte(canonicalPrefix))
	if !ok {
		return dst, fmt.Errorf("resilience: record %d: payload is not canonical", seq)
	}
	if bytes.IndexByte(rest, '\n') >= 0 {
		return dst, fmt.Errorf("resilience: record %d payload contains newline", seq)
	}
	const header = len("xxxxxxxx ")
	start := len(dst)
	out := append(dst, "xxxxxxxx "...)
	out = append(out, `{"seq":`...)
	out = strconv.AppendUint(out, seq, 10)
	out = append(out, rest...)
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc32.ChecksumIEEE(out[start+header:]))
	hex.Encode(out[start:start+header-1], sum[:])
	return append(out, '\n'), nil
}

// decodeLine parses one framed journal line (without the trailing
// newline), verifying the checksum.
func decodeLine(line []byte) (Record, error) {
	var rec Record
	if len(line) < 10 || line[8] != ' ' {
		return rec, errors.New("resilience: malformed record frame")
	}
	var sum uint32
	if _, err := fmt.Sscanf(string(line[:8]), "%08x", &sum); err != nil {
		return rec, fmt.Errorf("resilience: malformed checksum: %w", err)
	}
	payload := line[9:]
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return rec, fmt.Errorf("resilience: checksum mismatch (record %08x, computed %08x)", sum, got)
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, fmt.Errorf("resilience: decoding record: %w", err)
	}
	return rec, nil
}

// ReadJournal parses a journal image into its longest valid record
// prefix. A record is valid if it is newline-terminated, its checksum
// matches, and its sequence number continues the chain 1, 2, 3, … —
// anything else ends the scan there. consumed is the byte offset of the
// end of the last valid record (the truncation point for a log that will
// be appended to again), and torn reports whether trailing bytes were
// discarded. ReadJournal never fails on a damaged tail; that is the
// crash contract, not an error.
func ReadJournal(data []byte) (recs []Record, consumed int, torn bool) {
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // unterminated tail: a write died mid-record
		}
		rec, err := decodeLine(data[off : off+nl])
		if err != nil || rec.Seq != uint64(len(recs))+1 {
			break
		}
		recs = append(recs, rec)
		off += nl + 1
	}
	return recs, off, off < len(data)
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
// A short write (n < len with a nil error, from a buggy or faulty
// writer) is promoted to io.ErrShortWrite. Any failure wedges the
// journal: the record may be partially on disk, so nothing further may
// be appended after it.
func (j *Journal) Append(rec Record) error {
	seq, err := j.enqueue(rec.canonical())
	if err != nil {
		return err
	}
	return j.waitDurable(seq)
}

// enqueue frames a record, given as its canonical payload, into the
// pending group under the next sequence number and returns that number.
// Nothing is written: the record is durable once waitDurable(seq)
// returns nil.
func (j *Journal) enqueue(canonical []byte) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return 0, fmt.Errorf("%w: %w", ErrJournalBroken, j.err)
	}
	pending, err := appendFrame(j.pending, j.seq+1, canonical)
	if err != nil {
		return 0, err // nothing was enqueued: not wedged
	}
	j.pending = pending
	j.seq++
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
// whether a tail was discarded.
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
	if torn {
		if err := f.Truncate(int64(consumed)); err != nil {
			f.Close()
			return nil, nil, false, err
		}
	}
	if _, err := f.Seek(int64(consumed), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, false, err
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
