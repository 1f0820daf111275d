package benchkit

import (
	"strings"
	"testing"
)

func TestRegressionsThreshold(t *testing.T) {
	baseline := []Result{
		{Name: "A", NsPerOp: 1000},
		{Name: "B", NsPerOp: 1000},
		{Name: "C", NsPerOp: 1000},
	}
	current := []Result{
		{Name: "A", NsPerOp: 1250}, // +25%: within a 30% threshold
		{Name: "B", NsPerOp: 1500}, // +50%: regression
		{Name: "C", NsPerOp: 800},  // faster: fine
		{Name: "D", NsPerOp: 9999}, // new benchmark: no trajectory yet
	}
	msgs := Regressions(baseline, current, 0.30)
	if len(msgs) != 1 || !strings.HasPrefix(msgs[0], "B:") {
		t.Fatalf("msgs = %v, want exactly one for B", msgs)
	}
	if msgs := Regressions(baseline, current, 0.60); len(msgs) != 0 {
		t.Fatalf("loose threshold still flagged: %v", msgs)
	}
}

func TestRegressionsMissingBenchmark(t *testing.T) {
	baseline := []Result{{Name: "A", NsPerOp: 1000}, {Name: "Gone", NsPerOp: 5}}
	current := []Result{{Name: "A", NsPerOp: 1000}}
	msgs := Regressions(baseline, current, 0.30)
	if len(msgs) != 1 || !strings.Contains(msgs[0], "Gone") {
		t.Fatalf("msgs = %v, want missing-benchmark report for Gone", msgs)
	}
}

// A zero-ns baseline entry (hand-written or corrupt) must not divide by
// zero or flag spuriously.
func TestRegressionsZeroBaseline(t *testing.T) {
	msgs := Regressions([]Result{{Name: "Z", NsPerOp: 0}}, []Result{{Name: "Z", NsPerOp: 100}}, 0.30)
	if len(msgs) != 0 {
		t.Fatalf("msgs = %v", msgs)
	}
}

// ExtraDrift walks the union of Extra keys: dropped metrics come back
// as missing (the regression benchjson fails on), new ones as added
// (informational), and benchmarks absent from one side are ignored.
func TestExtraDrift(t *testing.T) {
	baseline := []Result{
		{Name: "A", Extra: map[string]float64{"bids/s": 1, "p99-adv-ns": 2}},
		{Name: "B", Extra: map[string]float64{"rows/s": 3}},
		{Name: "Gone", Extra: map[string]float64{"x/s": 4}},
	}
	current := []Result{
		{Name: "A", Extra: map[string]float64{"bids/s": 5, "p50-adv-ns": 6}},
		{Name: "B", Extra: map[string]float64{"rows/s": 7}},
		{Name: "New", Extra: map[string]float64{"y/s": 8}},
	}
	missing, added := ExtraDrift(baseline, current)
	if want := []string{"A: p99-adv-ns"}; !equalStrings(missing, want) {
		t.Errorf("missing = %v, want %v", missing, want)
	}
	if want := []string{"A: p50-adv-ns"}; !equalStrings(added, want) {
		t.Errorf("added = %v, want %v", added, want)
	}
	if m, a := ExtraDrift(baseline, baseline); len(m) != 0 || len(a) != 0 {
		t.Errorf("self-drift: missing %v, added %v", m, a)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("even median = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Fatalf("empty median = %v", m)
	}
}

// RunPairs with synthetic bodies: the full gate applies when the runner
// has the pair's CPUs, the relaxed gate otherwise, and pass/fail follows
// the measured median ratio.
func TestRunPairsGating(t *testing.T) {
	spin := func(iters int) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x := 0
				for j := 0; j < iters; j++ {
					x += j
				}
				_ = x
			}
		}
	}
	pairs := []Pair{
		{Name: "cand-faster", Baseline: spin(60000), Candidate: spin(1000),
			MinSpeedup: 1.5, RelaxedMinSpeedup: 0.75, NeedProcs: 1},
		{Name: "cand-slower-full-gate", Baseline: spin(1000), Candidate: spin(60000),
			MinSpeedup: 1.5, RelaxedMinSpeedup: 0.75, NeedProcs: 1},
		{Name: "cand-slower-relaxed-gate", Baseline: spin(1000), Candidate: spin(60000),
			MinSpeedup: 1.5, RelaxedMinSpeedup: 0.75, NeedProcs: 1 << 20},
	}
	res := RunPairs(pairs, 1, 1)
	if len(res) != 3 {
		t.Fatalf("%d results", len(res))
	}
	if !res[0].Pass || !res[0].FullGate {
		t.Errorf("faster candidate failed full gate: %+v", res[0])
	}
	if res[1].Pass {
		t.Errorf("much slower candidate passed the full gate: %+v", res[1])
	}
	if res[1].RequiredSpeedup != 1.5 {
		t.Errorf("full gate requirement = %v", res[1].RequiredSpeedup)
	}
	if res[2].FullGate || res[2].RequiredSpeedup != 0.75 {
		t.Errorf("relaxed gate not applied: %+v", res[2])
	}
	if res[2].Pass {
		t.Errorf("60x slower candidate passed even the relaxed gate: %+v", res[2])
	}
}

// The registered pairs must reference real bodies and sane thresholds —
// a pair with a nil side or a relaxed bound above the full bound would
// make the CI gate vacuous or impossible.
func TestPairsRegistry(t *testing.T) {
	pairs := Pairs()
	if len(pairs) == 0 {
		t.Fatal("no pairs registered")
	}
	seen := map[string]bool{}
	for _, p := range pairs {
		if p.Name == "" || p.Baseline == nil || p.Candidate == nil {
			t.Errorf("malformed pair %+v", p.Name)
		}
		if seen[p.Name] {
			t.Errorf("duplicate pair %q", p.Name)
		}
		seen[p.Name] = true
		if p.MinSpeedup <= 0 || p.RelaxedMinSpeedup <= 0 || p.RelaxedMinSpeedup > p.MinSpeedup {
			t.Errorf("pair %q thresholds: full %v, relaxed %v", p.Name, p.MinSpeedup, p.RelaxedMinSpeedup)
		}
		if p.NeedProcs < 1 {
			t.Errorf("pair %q NeedProcs %d", p.Name, p.NeedProcs)
		}
	}
}

// Settled tiers keep the dedup digest and the mechanism's payment of
// each bid, and nothing else that grows with the bids: no second
// invoice ledger, no validator curves or departure marks once a period
// is over, and a bit per sequence in the router's batched set. The
// budget leaves about 20% over the 78.9 B/bid measured on linux/amd64
// with Go 1.24. Holding the dedup digests or the payments in a Go map
// again, with its buckets and growth slack, exceeds it: with both it was
// 131.0 B/bid.
func TestTierRetainedBudget(t *testing.T) {
	const budget = 95
	if got := tierRetainedPerBid(t); got > budget {
		t.Errorf("settled spot-shaped tiers retain %.1f B/bid, budget %d", got, budget)
	}
}

// An open season-shaped tier keeps its present users' curves and its
// departed users' digests and payments. The budget leaves about 7% over
// the 255–258 B/user measured on linux/amd64 with Go 1.24, and sits
// below the 285.5 B/user the tier held with its digests and payments in
// Go maps.
func TestTierRetainedOpenBudget(t *testing.T) {
	const budget = 275
	if got := tierRetainedOpenPerUser(t); got > budget {
		t.Errorf("an open season-shaped tier retains %.1f B/user, budget %d", got, budget)
	}
}
