package obs

import (
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sharedopt/internal/stats"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready for use. All methods are safe on a nil receiver (no-ops for
// writes, zero for reads), so instrumented code paths need no "is
// observability enabled?" branches: an un-instrumented component simply
// holds nil metrics.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current count.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// MaxGauge records the largest value ever observed — a high-water mark.
// The zero value (high water 0) is ready for use; nil receivers are
// no-ops, like Counter's.
type MaxGauge struct{ v atomic.Uint64 }

// Observe raises the high-water mark to v if v exceeds it.
func (g *MaxGauge) Observe(v uint64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the high-water mark.
func (g *MaxGauge) Load() uint64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram of int64 observations (latency
// metrics observe nanoseconds). Bucket i holds observations v with
// bounds[i-1] < v <= bounds[i]; one implicit overflow bucket holds
// everything above the last bound. Besides per-bucket counts it tracks
// per-bucket sums and exact global count/sum/min/max, so Quantile can
// return exact extremes and bucket-mean-resolved percentiles. Observe is
// allocation-free and lock-free (atomics only); construct with
// NewHistogram or Registry.Histogram. Nil receivers are no-ops.
type Histogram struct {
	bounds []int64 // sorted upper bounds; len(counts) == len(bounds)+1
	counts []atomic.Uint64
	sums   []atomic.Int64
	count  atomic.Uint64
	sum    atomic.Int64
	min    atomic.Int64 // valid only while count > 0
	max    atomic.Int64
}

// NewHistogram returns a histogram over the given sorted upper bounds
// (plus the implicit overflow bucket). The bounds slice is not copied;
// callers must not mutate it. It panics on empty or unsorted bounds.
func NewHistogram(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
		sums:   make([]atomic.Int64, len(bounds)+1),
	}
}

// DefaultLatencyBounds returns the 1-2-5 ladder from 1µs to 10s in
// nanoseconds — 22 buckets plus overflow, the default resolution for the
// tier's latency histograms.
func DefaultLatencyBounds() []int64 {
	var bounds []int64
	for decade := int64(1_000); decade <= 1_000_000_000; decade *= 10 {
		bounds = append(bounds, decade, 2*decade, 5*decade)
	}
	return append(bounds, 10_000_000_000)
}

// Observe folds one observation into the histogram.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	b := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[b].Add(1)
	h.sums[b].Add(v)
	h.sum.Add(v)
	if h.count.Add(1) == 1 {
		// First observation seeds min/max; concurrent observers racing
		// this window still converge via the CAS loops below, because
		// the seeds only ever tighten.
		h.min.Store(v)
		h.max.Store(v)
	}
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// ObserveSince observes the nanoseconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Nanoseconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Max returns the exact largest observation, or 0 when empty.
func (h *Histogram) Max() int64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return h.max.Load()
}

// Quantile returns the p-th quantile; see HistSnapshot.Quantile for the
// exact semantics. It snapshots the histogram first, so concurrent
// observers may or may not be included.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil {
		return 0
	}
	return h.snapshot().Quantile(p)
}

// snapshot copies the histogram's state. Under concurrent Observe calls
// the copy may straddle an in-flight observation (count updated, bucket
// not yet); Quantile tolerates that by clamping ranks to the counted
// mass. Quiesced histograms snapshot exactly.
func (h *Histogram) snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sums:   make([]int64, len(h.sums)),
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
	}
	if s.Count > 0 {
		s.Min, s.Max = h.min.Load(), h.max.Load()
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Sums[i] = h.sums[i].Load()
	}
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram, shaped for JSON
// export. Bounds aliases the live histogram's (immutable) bound slice.
type HistSnapshot struct {
	Bounds []int64  `json:"bounds"`
	Counts []uint64 `json:"counts"` // per bucket, last = overflow
	Sums   []int64  `json:"sums"`   // per bucket, last = overflow
	Count  uint64   `json:"count"`
	Sum    int64    `json:"sum"`
	Min    int64    `json:"min"`
	Max    int64    `json:"max"`
}

// bucketOf returns the bucket index value v falls in.
func (s HistSnapshot) bucketOf(v int64) int {
	return sort.Search(len(s.Bounds), func(i int) bool { return v <= s.Bounds[i] })
}

// rankValue returns the value of the k-th smallest observation (0-based),
// resolved to its bucket's mean — exact whenever every observation in
// that bucket is equal (single observations, values sitting on bucket
// bounds, or one distinct value per bucket). Rank 0 and rank Count-1
// refine to the tracked exact min/max when that extreme lies in the
// rank's bucket — always true for a lifetime snapshot, where min sits in
// the first nonempty bucket and max in the last; a Diff window keeps the
// bucket mean instead when the lifetime extreme predates the window.
func (s HistSnapshot) rankValue(k int) float64 {
	if k < 0 {
		k = 0
	}
	if uint64(k) >= s.Count {
		k = int(s.Count - 1)
	}
	cum := uint64(0)
	for b, c := range s.Counts {
		cum += c
		if uint64(k) < cum {
			if k == 0 && s.bucketOf(s.Min) == b {
				return float64(s.Min)
			}
			if uint64(k) == s.Count-1 && s.bucketOf(s.Max) == b {
				return float64(s.Max)
			}
			return float64(s.Sums[b]) / float64(c)
		}
	}
	return float64(s.Max)
}

// Quantile returns the p-th quantile (p in [0,1], clamped) under exactly
// stats.Percentile's R-7 rank definition, with sub-bucket resolution at
// the bucket mean: conceptually the histogram expands to a sorted
// multiset where each observation takes its bucket's mean value, then
// stats.PercentileRank picks the rank to interpolate at. Min (p=0), max
// (p=1) and any quantile whose rank lands in a uniformly-valued bucket
// are exact; otherwise the error is bounded by the bucket width. Empty
// histograms yield 0.
func (s HistSnapshot) Quantile(p float64) float64 {
	if s.Count == 0 {
		return 0
	}
	lo, frac := stats.PercentileRank(int(s.Count), p)
	v := s.rankValue(lo)
	if frac == 0 {
		return v
	}
	return v + frac*(s.rankValue(lo+1)-v)
}

// Mean returns the exact mean observation, or 0 when empty.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Registry is a namespace of metrics, created on first use and looked up
// by name. Lookups lock; the returned metric objects are lock-free and
// meant to be cached by the instrumented component at construction time,
// not re-looked-up on hot paths. A nil *Registry returns nil metrics
// from every getter, which (by the nil-receiver contract above) disables
// instrumentation with zero configuration.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*MaxGauge
	hists    map[string]*Histogram
	sums     map[string][]string // derived counter name -> part counter names
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*MaxGauge),
		hists:    make(map[string]*Histogram),
		sums:     make(map[string][]string),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// MaxGauge returns the named high-water gauge, creating it on first use.
func (r *Registry) MaxGauge(name string) *MaxGauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = new(MaxGauge)
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (later bounds are ignored; nil bounds default to
// DefaultLatencyBounds).
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		if bounds == nil {
			bounds = DefaultLatencyBounds()
		}
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Sum registers name as a derived counter: every Snapshot reports it as
// the sum of the part counters' values read in that same snapshot, so
// name == Σ parts holds exactly in each snapshot even while the parts
// move. A part that is not a registered counter reads as 0 (a sum never
// sums other sums). Sums appear in Snapshot.Counters, where Diff and
// JSON treat them as counters. A later Sum under the same name replaces
// the parts; name should not also be a counter's name.
func (r *Registry) Sum(name string, parts ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sums[name] = append([]string(nil), parts...)
}

// Snapshot is a point-in-time copy of a registry's metrics. Marshaling
// it with encoding/json is deterministic for quiesced metrics: map keys
// serialize in sorted order.
type Snapshot struct {
	Counters map[string]uint64       `json:"counters,omitempty"`
	Gauges   map[string]uint64       `json:"gauges,omitempty"`
	Hists    map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies every registered metric's current state, reading each
// metric once, atomically, and computing every Sum from the part values
// it read. Metrics that move during the call may be read at different
// instants, so only the Sum identities are exact across names.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters)+len(r.sums) > 0 {
		s.Counters = make(map[string]uint64, len(r.counters)+len(r.sums))
		for name, c := range r.counters {
			s.Counters[name] = c.Load()
		}
		for name, parts := range r.sums {
			var v uint64
			for _, p := range parts {
				if r.counters[p] != nil {
					v += s.Counters[p]
				}
			}
			s.Counters[name] = v
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]uint64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Load()
		}
	}
	if len(r.hists) > 0 {
		s.Hists = make(map[string]HistSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Hists[name] = h.snapshot()
		}
	}
	return s
}

// Diff returns the change from prev to s: counters and histogram
// counts/sums subtract (metrics absent from prev diff against zero);
// high-water gauges and histogram min/max are lifetime extremes, not
// rates, so the diff carries s's values unchanged. Counter and Quantile
// reads on the result describe exactly the window between the two
// snapshots.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	out := Snapshot{Gauges: s.Gauges}
	if len(s.Counters) > 0 {
		out.Counters = make(map[string]uint64, len(s.Counters))
		for name, v := range s.Counters {
			out.Counters[name] = v - prev.Counters[name]
		}
	}
	if len(s.Hists) > 0 {
		out.Hists = make(map[string]HistSnapshot, len(s.Hists))
		for name, h := range s.Hists {
			p, ok := prev.Hists[name]
			if !ok {
				out.Hists[name] = h
				continue
			}
			d := HistSnapshot{
				Bounds: h.Bounds,
				Counts: make([]uint64, len(h.Counts)),
				Sums:   make([]int64, len(h.Sums)),
				Count:  h.Count - p.Count,
				Sum:    h.Sum - p.Sum,
				Min:    h.Min,
				Max:    h.Max,
			}
			for i := range h.Counts {
				d.Counts[i] = h.Counts[i] - p.Counts[i]
				d.Sums[i] = h.Sums[i] - p.Sums[i]
			}
			out.Hists[name] = d
		}
	}
	return out
}

// TimedWriter wraps an io.Writer, observing every Write's wall-clock
// latency in nanoseconds into H. For a journal target whose Write syncs
// to stable storage (resilience.FileLog), that is the fsync latency of
// one group of records. Bytes pass through untouched, so wrapping a journal writer
// never changes what lands in the journal.
type TimedWriter struct {
	W io.Writer
	H *Histogram
}

// Write forwards to W and observes the elapsed nanoseconds.
func (t TimedWriter) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := t.W.Write(p)
	t.H.ObserveSince(start)
	return n, err
}
