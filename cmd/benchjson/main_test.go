package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sharedopt/internal/benchkit"
)

// The full benchmark sweep takes seconds per entry, so the test exercises
// only the file plumbing and the snapshot schema round-trip.
func TestSnapshotRoundTrip(t *testing.T) {
	snap := snapshot{
		GoVersion:  "go1.24",
		GOMAXPROCS: 4,
		Results: []benchkit.Result{
			{Name: "Shapley1k", Iterations: 100, NsPerOp: 12345.6, BytesPerOp: 64, AllocsPerOp: 2},
		},
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Results) != 1 || back.Results[0].Name != "Shapley1k" {
		t.Fatalf("round trip lost results: %+v", back)
	}
	if back.Results[0].AllocsPerOp != 2 {
		t.Fatalf("allocs = %d, want 2", back.Results[0].AllocsPerOp)
	}
}

// Loading a baseline tolerates the extra hand-written fields committed
// snapshots carry, and rejects files with no machine-readable results.
func TestLoadSnapshotHandWrittenFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_X.json")
	blob := `{
  "pr": 2,
  "method": "notes for humans",
  "go_version": "go1.24",
  "gomaxprocs": 1,
  "benchmarks": [{"name": "ignored", "before": {}, "after": {}}],
  "results": [{"name": "SubstOnGame", "iterations": 10, "ns_per_op": 100.0}]
}`
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := loadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Results) != 1 || snap.Results[0].Name != "SubstOnGame" {
		t.Fatalf("results = %+v", snap.Results)
	}
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, []byte(`{"results": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadSnapshot(empty); err == nil {
		t.Fatal("baseline without results accepted")
	}
}

// The benchmark registry must contain every tracked benchmark so a
// future edit cannot silently drop one from the perf trajectory.
func TestKeyBenchmarksRegistered(t *testing.T) {
	want := map[string]bool{
		"Shapley1k": true, "Shapley10k": true, "Shapley100k": true,
		"AddOnGame": true, "SubstOnGame": true,
		"AddOnSeason": true, "SubstOnSeason": true,
		"ServiceGame":    true,
		"ShardedIngest1": true, "ShardedIngest4": true, "ShardedIngest4Obs": true,
		"ShardedIngest4Net": true, "TierRetained": true, "TierRetainedOpen": true,
		"JournalAppendSeason": true, "ReadJournalSeason": true,
		"EngineHashJoin": true, "EngineHashJoinParallel4": true,
		"EngineBuildJoin": true, "EngineBuildJoinParallel4": true,
		"EngineOrderBy": true, "EngineOrderByParallel4": true,
		"HaloFinder": true, "HaloFinderWarm": true, "HaloFinderParallel4": true,
		"AstroWorkload": true, "AstroWorkloadParallel4": true,
	}
	for _, kb := range benchkit.Key() {
		if !want[kb.Name] {
			t.Errorf("unexpected benchmark %q", kb.Name)
		}
		delete(want, kb.Name)
		if kb.Body == nil {
			t.Errorf("benchmark %q has no body", kb.Name)
		}
	}
	for name := range want {
		t.Errorf("benchmark %q missing from Key()", name)
	}
}

// A baseline diff must not silently drop Extra metrics: a key present
// in the baseline but gone from the current run fails the diff by name,
// while a key new in the current run is informational only.
func TestDiffAgainstExtraUnion(t *testing.T) {
	diff := func(t *testing.T, baseline, current []benchkit.Result) (string, error) {
		t.Helper()
		f, err := os.CreateTemp(t.TempDir(), "diff")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		diffErr := diffAgainst(f, baseline, current, 0.30)
		out, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		return string(out), diffErr
	}
	baseline := []benchkit.Result{{Name: "ShardedIngest4", NsPerOp: 1000,
		Extra: map[string]float64{"bids/s": 5000, "p99-adv-ns": 900}}}

	// Dropped metric: ns/op is fine, but "p99-adv-ns" vanished.
	out, err := diff(t, baseline, []benchkit.Result{{Name: "ShardedIngest4", NsPerOp: 1000,
		Extra: map[string]float64{"bids/s": 5100}}})
	if err == nil {
		t.Fatalf("dropped metric passed the diff:\n%s", out)
	}
	if !strings.Contains(out, "no longer reported") || !strings.Contains(out, "p99-adv-ns") {
		t.Errorf("dropped metric not named:\n%s", out)
	}

	// New metric: reported, but not a failure.
	out, err = diff(t, baseline, []benchkit.Result{{Name: "ShardedIngest4", NsPerOp: 1000,
		Extra: map[string]float64{"bids/s": 5100, "p99-adv-ns": 910, "p50-adv-ns": 400}}})
	if err != nil {
		t.Fatalf("new metric failed the diff: %v\n%s", err, out)
	}
	if !strings.Contains(out, "new metric") || !strings.Contains(out, "p50-adv-ns") {
		t.Errorf("new metric not reported:\n%s", out)
	}
}

// The pair-mode snapshot round-trips and marshals the gating fields CI
// reads from the log.
func TestPairSnapshotRoundTrip(t *testing.T) {
	snap := pairSnapshot{
		GoVersion:  "go1.24",
		GOMAXPROCS: 4,
		NumCPU:     4,
		Pairs: []benchkit.PairResult{{
			Name: "EngineHashJoin/parallel4-vs-serial", Rounds: 3,
			BaselineNsPerOp: 2000, CandidateNs: 1000,
			Speedup: 2.0, RequiredSpeedup: 1.5, FullGate: true, Pass: true,
		}},
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back pairSnapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Pairs) != 1 || !back.Pairs[0].Pass || back.Pairs[0].Speedup != 2.0 {
		t.Fatalf("round trip lost pair data: %+v", back)
	}
}
