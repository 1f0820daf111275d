package main

// Tracing from outside the program. A traced run wraps each ShardHost in a
// ShardTransport and each FileLog in an io.Writer that time the calls
// crossing those boundaries; the client's calls into the router and the
// reference Service are timed where the benchmark makes them. Nothing
// inside the program changes. Spans are kept in memory and written as
// JSON lines when the run ends.
//
// A loopback submit runs every layer on the submitting goroutine, and a
// settlement runs every layer on the clock goroutine, so each wrapper
// finds its parent span in state only that goroutine touches. A journal
// write finds its parent from its frame: a bid frame names its user, an
// adv marker belongs to the shard's settlement in progress.

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"io"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sharedopt/internal/core"
	"sharedopt/internal/resilience"
	"sharedopt/internal/stats"
)

// span is one timed call at a layer boundary. Times are nanoseconds from
// the start of the workload; Shard is -1 outside a shard.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Request uint64 `json:"request"`
	Name    string `json:"name"`
	Shard   int    `json:"shard"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

type tracer struct {
	base  time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
	// users[u-1] is user u's request in flight, touched only by the
	// goroutine of that user's bid.
	users []userCalls
	// slot is the settlement in flight, touched only by the clock.
	slot slotCalls
}

type userCalls struct{ request, router, shard uint64 }

type slotCalls struct{ request, router uint64 }

func newTracer(base time.Time, users int) *tracer {
	return &tracer{base: base, users: make([]userCalls, users)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops the spans recorded so far (those of set-up).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

// user returns user u's in-flight request, or nil for an unknown user.
func (t *tracer) user(u uint64) *userCalls {
	if u < 1 || u > uint64(len(t.users)) {
		return nil
	}
	return &t.users[u-1]
}

// timed runs f and, on a non-nil tracer, records it as a root span.
func (t *tracer) timed(name string, f func() error) error {
	if t == nil {
		return f()
	}
	s := span{ID: t.newID(), Name: name, Shard: -1, Start: t.now()}
	s.Request = s.ID
	err := f()
	s.End = t.now()
	t.add(s)
	return err
}

// submit times one client call into the router for user u.
func (t *tracer) submit(u core.UserID, call func() error) error {
	c := t.user(uint64(u))
	c.request, c.router = t.newID(), t.newID()
	s := span{ID: c.router, Request: c.request, Name: "router.submit", Shard: -1, Start: t.now()}
	err := call()
	s.End = t.now()
	t.add(s)
	return err
}

// advance times one settlement.
func (t *tracer) advance(tier *resilience.ShardedService) error {
	t.slot = slotCalls{request: t.newID(), router: t.newID()}
	s := span{ID: t.slot.router, Request: t.slot.request, Name: "router.advance", Shard: -1, Start: t.now()}
	_, err := tier.AdvanceSlot()
	s.End = t.now()
	t.add(s)
	return err
}

// tracedShard is a ShardTransport timing the calls into one ShardHost.
type tracedShard struct {
	tr      *tracer
	host    *resilience.ShardHost
	shard   int
	advance uint64 // the Advance span in flight (clock goroutine only)
}

func (s *tracedShard) Submit(ctx context.Context, rec resilience.Record) (resilience.SubmitResult, error) {
	sp := span{ID: s.tr.newID(), Name: "shard.submit", Shard: s.shard}
	if c := s.tr.user(uint64(rec.User)); c != nil {
		c.shard = sp.ID
		sp.Parent, sp.Request = c.router, c.request
	}
	sp.Start = s.tr.now()
	res, err := s.host.Submit(ctx, rec)
	sp.End = s.tr.now()
	s.tr.add(sp)
	return res, err
}

func (s *tracedShard) Advance(ctx context.Context, window int) error {
	s.advance = s.tr.newID()
	sp := span{ID: s.advance, Parent: s.tr.slot.router, Request: s.tr.slot.request, Name: "shard.advance", Shard: s.shard, Start: s.tr.now()}
	err := s.host.Advance(ctx, window)
	sp.End = s.tr.now()
	s.tr.add(sp)
	return err
}

func (s *tracedShard) ClosePeriod(ctx context.Context) error { return s.host.ClosePeriod(ctx) }

func (s *tracedShard) Stats(ctx context.Context) (resilience.ShardInfo, error) {
	return s.host.Stats(ctx)
}

// tracedLog is an io.Writer timing the writes into one shard's FileLog.
type tracedLog struct {
	w  io.Writer
	sh *tracedShard
}

func (l *tracedLog) Write(p []byte) (int, error) {
	t := l.sh.tr
	s := span{ID: t.newID(), Name: "journal.write", Shard: l.sh.shard, Start: t.now()}
	n, err := l.w.Write(p)
	s.End = t.now()
	switch frameValue(p, "kind") {
	case `"abid"`, `"sbid"`:
		u, _ := strconv.ParseUint(frameValue(p, "user"), 10, 64)
		if c := t.user(u); c != nil {
			s.Parent, s.Request = c.shard, c.request
		}
	case `"adv"`:
		s.Parent, s.Request = l.sh.advance, t.slot.request
	}
	t.add(s)
	return n, err
}

// frameValue returns the raw JSON value of a top-level key of a journal
// frame, or "" when the key is absent.
func frameValue(frame []byte, key string) string {
	k := append(append([]byte{'"'}, key...), '"', ':')
	i := bytes.Index(frame, k)
	if i < 0 {
		return ""
	}
	v := frame[i+len(k):]
	if end := bytes.IndexAny(v, ",}"); end >= 0 {
		return string(v[:end])
	}
	return ""
}

// write saves the spans as JSON lines; an empty path writes nothing.
func (t *tracer) write(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type interval struct{ start, end int64 }

// covered returns how much of [lo, hi] the intervals cover; they must be
// sorted by start.
func covered(iv []interval, lo, hi int64) int64 {
	var total int64
	curS, curE := lo, lo
	for _, x := range iv {
		s, e := max(x.start, lo), min(x.end, hi)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return total + curE - curS
}

// profile is the spans of a run reduced to durations and self times per
// span name, in nanoseconds, plus the spans themselves for busy time.
type profile struct {
	dur, self map[string][]float64
	spans     []span
	from, to  int64 // the measured window
}

// profile computes every span's self time: its duration minus the part
// of it its children cover.
func (t *tracer) profile(from, to int64) *profile {
	spans := t.spans
	pos := make(map[uint64]int, len(spans))
	var kids []int
	for i, s := range spans {
		pos[s.ID] = i
		if s.Parent != 0 {
			kids = append(kids, i)
		}
	}
	slices.SortFunc(kids, func(a, b int) int {
		return cmp.Or(cmp.Compare(spans[a].Parent, spans[b].Parent), cmp.Compare(spans[a].Start, spans[b].Start))
	})
	cover := make([]int64, len(spans))
	for lo := 0; lo < len(kids); {
		parent := spans[kids[lo]].Parent
		iv := []interval{}
		for ; lo < len(kids) && spans[kids[lo]].Parent == parent; lo++ {
			iv = append(iv, interval{spans[kids[lo]].Start, spans[kids[lo]].End})
		}
		if p, ok := pos[parent]; ok {
			cover[p] = covered(iv, spans[p].Start, spans[p].End)
		}
	}
	pr := &profile{dur: map[string][]float64{}, self: map[string][]float64{}, spans: spans, from: from, to: to}
	for i, s := range spans {
		pr.dur[s.Name] = append(pr.dur[s.Name], float64(s.End-s.Start))
		pr.self[s.Name] = append(pr.self[s.Name], float64(s.End-s.Start-cover[i]))
	}
	return pr
}

func (p *profile) durQ(name string, q float64) float64 { return stats.Percentile(p.dur[name], q) }

func (p *profile) selfQ(name string, q float64) float64 { return stats.Percentile(p.self[name], q) }

// busy is the share of the measured window during which a shard has at
// least one call of the named kinds in it, averaged over the shards.
func (p *profile) busy(shards int, names ...string) float64 {
	lanes := make([][]interval, shards)
	for _, s := range p.spans {
		if s.Shard >= 0 && s.Shard < shards && slices.Contains(names, s.Name) {
			lanes[s.Shard] = append(lanes[s.Shard], interval{s.Start, s.End})
		}
	}
	var sum float64
	for _, iv := range lanes {
		slices.SortFunc(iv, func(a, b interval) int { return cmp.Compare(a.start, b.start) })
		sum += float64(covered(iv, p.from, p.to)) / float64(p.to-p.from)
	}
	return sum / float64(shards)
}
