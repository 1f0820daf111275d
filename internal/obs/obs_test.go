package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"sharedopt/internal/stats"
)

func TestCounterAndGaugeNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Load() != 0 {
		t.Fatal("nil counter must read 0")
	}
	var g *MaxGauge
	g.Observe(7)
	if g.Load() != 0 {
		t.Fatal("nil gauge must read 0")
	}
	var h *Histogram
	h.Observe(3)
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Max() != 0 {
		t.Fatal("nil histogram must read 0")
	}
	var r *Registry
	if r.Counter("x") != nil || r.MaxGauge("x") != nil || r.Histogram("x", nil) != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	if s := r.Snapshot(); s.Counters != nil || s.Hists != nil {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestMaxGaugeHighWater(t *testing.T) {
	var g MaxGauge
	for _, v := range []uint64{3, 9, 4, 9, 1} {
		g.Observe(v)
	}
	if got := g.Load(); got != 9 {
		t.Fatalf("high water = %d, want 9", got)
	}
}

// Zero observations: every read returns 0, and quantiles at any p are 0.
func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram([]int64{10, 20})
	for _, p := range []float64{-1, 0, 0.5, 0.99, 1, 2} {
		if got := h.Quantile(p); got != 0 {
			t.Fatalf("empty Quantile(%v) = %v, want 0", p, got)
		}
	}
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must read 0 count and max")
	}
}

// A single observation is every quantile, exactly — even when it lands
// in the overflow bucket.
func TestHistogramSingleObservation(t *testing.T) {
	for _, v := range []int64{7, 20, 999} { // mid-bucket, on-bound, overflow
		h := NewHistogram([]int64{10, 20})
		h.Observe(v)
		for _, p := range []float64{0, 0.25, 0.5, 0.99, 1} {
			if got := h.Quantile(p); got != float64(v) {
				t.Fatalf("single-obs(%d) Quantile(%v) = %v, want %v", v, p, got, v)
			}
		}
		if h.Max() != v {
			t.Fatalf("single-obs(%d) Max = %d", v, h.Max())
		}
	}
}

// Values sitting exactly on bucket bounds land in the bound's own bucket
// (bounds are upper-inclusive), keeping each bucket uniformly valued, so
// every quantile is exact and matches stats.Percentile on the raw data.
func TestHistogramExactBoundaryValues(t *testing.T) {
	bounds := []int64{10, 20, 50, 100}
	h := NewHistogram(bounds)
	var raw []float64
	for i, b := range bounds {
		for k := 0; k <= i; k++ { // 1×10, 2×20, 3×50, 4×100
			h.Observe(b)
			raw = append(raw, float64(b))
		}
	}
	for _, p := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
		want := stats.Percentile(raw, p)
		if got := h.Quantile(p); got != want {
			t.Fatalf("Quantile(%v) = %v, want exact %v", p, got, want)
		}
	}
}

// Observations above the last bound accumulate in the overflow bucket;
// count, sum, max, and upper quantiles still see them.
func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram([]int64{10})
	for _, v := range []int64{5, 5000, 5000, 5000} {
		h.Observe(v)
	}
	s := h.snapshot()
	if s.Counts[1] != 3 || s.Sums[1] != 15000 {
		t.Fatalf("overflow bucket = %d/%d, want 3/15000", s.Counts[1], s.Sums[1])
	}
	if h.Max() != 5000 {
		t.Fatalf("Max = %d, want 5000", h.Max())
	}
	raw := []float64{5, 5000, 5000, 5000}
	for _, p := range []float64{0.5, 0.99, 1} {
		if got, want := h.Quantile(p), stats.Percentile(raw, p); got != want {
			t.Fatalf("Quantile(%v) = %v, want %v", p, got, want)
		}
	}
}

// Mixed values within one bucket resolve to the bucket mean, and the
// estimate stays within the bucket's bounds.
func TestHistogramSubBucketResolution(t *testing.T) {
	h := NewHistogram([]int64{100, 200})
	for _, v := range []int64{110, 150, 190} {
		h.Observe(v)
	}
	if got := h.Quantile(0.5); got != 150 {
		t.Fatalf("p50 = %v, want bucket mean 150", got)
	}
	// Exact extremes despite shared bucket.
	if h.Quantile(0) != 110 || h.Quantile(1) != 190 {
		t.Fatalf("extremes = %v/%v, want 110/190", h.Quantile(0), h.Quantile(1))
	}
}

func TestDefaultLatencyBoundsSorted(t *testing.T) {
	b := DefaultLatencyBounds()
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not increasing at %d: %v", i, b[i-1:i+1])
		}
	}
	if b[0] != 1_000 || b[len(b)-1] != 10_000_000_000 {
		t.Fatalf("ladder spans %d..%d, want 1µs..10s", b[0], b[len(b)-1])
	}
}

// The hot-path writes must not allocate.
func TestObserveAllocFree(t *testing.T) {
	h := NewHistogram(DefaultLatencyBounds())
	var c Counter
	var g MaxGauge
	if n := testing.AllocsPerRun(100, func() {
		h.Observe(123_456)
		c.Inc()
		g.Observe(42)
	}); n != 0 {
		t.Fatalf("hot path allocates %v/op, want 0", n)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram([]int64{100})
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	if h.Quantile(0) != 0 || h.Max() != workers*per-1 {
		t.Fatalf("extremes = %v/%v", h.Quantile(0), h.Max())
	}
	s := h.snapshot()
	if s.Sum != int64(workers*per)*(workers*per-1)/2 {
		t.Fatalf("sum = %d", s.Sum)
	}
}

func TestRegistrySnapshotDiffAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("tier.accepted").Add(10)
	r.MaxGauge("shard0.batch_highwater").Observe(6)
	h := r.Histogram("tier.advance_ns", []int64{100, 200})
	h.Observe(50)
	h.Observe(150)
	before := r.Snapshot()

	r.Counter("tier.accepted").Add(5)
	r.MaxGauge("shard0.batch_highwater").Observe(9)
	h.Observe(150)
	after := r.Snapshot()

	d := after.Diff(before)
	if d.Counters["tier.accepted"] != 5 {
		t.Fatalf("diff counter = %d, want 5", d.Counters["tier.accepted"])
	}
	if d.Gauges["shard0.batch_highwater"] != 9 {
		t.Fatalf("diff gauge = %d, want current high water 9", d.Gauges["shard0.batch_highwater"])
	}
	dh := d.Hists["tier.advance_ns"]
	if dh.Count != 1 || dh.Sum != 150 {
		t.Fatalf("diff hist = %d obs / %d sum, want 1/150", dh.Count, dh.Sum)
	}
	if got := dh.Quantile(0.5); got != 150 {
		t.Fatalf("window p50 = %v, want 150", got)
	}

	// JSON export is deterministic for quiesced registries.
	j1, err := json.Marshal(after)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("snapshot JSON not stable:\n%s\n%s", j1, j2)
	}
	var back Snapshot
	if err := json.Unmarshal(j1, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["tier.accepted"] != 15 {
		t.Fatalf("JSON round trip lost counters: %+v", back)
	}
}

// A Sum is derived in each snapshot from the part values that snapshot
// read, diffs and round-trips through JSON like a counter, reads a part
// that was never registered as 0, and is a no-op on a nil registry.
func TestRegistrySum(t *testing.T) {
	r := NewRegistry()
	a, b := r.Counter("shard0.accepted"), r.Counter("shard1.accepted")
	r.Sum("tier.accepted", "shard0.accepted", "shard1.accepted", "shard2.accepted")
	a.Add(3)
	b.Add(4)
	before := r.Snapshot()
	if got := before.Counters["tier.accepted"]; got != 7 {
		t.Fatalf("sum = %d, want 7", got)
	}
	if _, ok := before.Counters["shard2.accepted"]; ok {
		t.Fatal("an unregistered part must not appear in the snapshot")
	}
	r.Counter("shard2.accepted").Add(5)
	a.Inc()
	after := r.Snapshot()
	if got := after.Counters["tier.accepted"]; got != 13 {
		t.Fatalf("sum = %d, want 13", got)
	}
	if got := after.Diff(before).Counters["tier.accepted"]; got != 6 {
		t.Fatalf("diff sum = %d, want 6", got)
	}
	j, err := json.Marshal(after)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(j, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["tier.accepted"] != 13 {
		t.Fatalf("JSON round trip lost the sum: %s", j)
	}

	// Parts moving while snapshots are taken: each snapshot's sum is the
	// sum of the part values it reports.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, c := range []*Counter{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
				}
			}
		}()
	}
	for k := 0; k < 1000; k++ {
		c := r.Snapshot().Counters
		if got, want := c["tier.accepted"], c["shard0.accepted"]+c["shard1.accepted"]+c["shard2.accepted"]; got != want {
			t.Errorf("snapshot %d: sum = %d, parts sum to %d", k, got, want)
			break
		}
	}
	close(stop)
	wg.Wait()

	var nr *Registry
	nr.Sum("tier.accepted", "shard0.accepted")
	if s := nr.Snapshot(); s.Counters != nil {
		t.Fatal("nil registry must stay empty")
	}
}

// Same registry name returns the same metric object; histogram bounds
// are fixed at first creation.
func TestRegistryIdentity(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("counter identity lost")
	}
	h1 := r.Histogram("h", []int64{1, 2})
	h2 := r.Histogram("h", []int64{99})
	if h1 != h2 {
		t.Fatal("histogram identity lost")
	}
	if len(h1.bounds) != 2 {
		t.Fatal("later bounds must not rebind")
	}
}

// TimedWriter passes bytes through byte-identically and observes one
// latency sample per write.
func TestTimedWriterPassThrough(t *testing.T) {
	var buf bytes.Buffer
	h := NewHistogram(DefaultLatencyBounds())
	w := TimedWriter{W: &buf, H: h}
	for _, s := range []string{"rec1\n", "rec2\n"} {
		n, err := w.Write([]byte(s))
		if err != nil || n != len(s) {
			t.Fatalf("write = %d, %v", n, err)
		}
	}
	if buf.String() != "rec1\nrec2\n" {
		t.Fatalf("bytes perturbed: %q", buf.String())
	}
	if h.Count() != 2 {
		t.Fatalf("observed %d writes, want 2", h.Count())
	}
}
