package main

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func smokeRun(t *testing.T, cfg runConfig) result {
	t.Helper()
	cfg.tmp = t.TempDir()
	res, err := runWorkload(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	return res
}

func names(ms []specMetric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	slices.Sort(out)
	return out
}

func summaryNames(res result, traced bool) []string {
	var out []string
	for name := range summarize([]result{res}, traced).Metrics {
		out = append(out, name)
	}
	slices.Sort(out)
	return out
}

// TestSmoke runs every workload for about a second at a tenth of its
// rate, untraced and traced, with every output check on. The metrics a
// declared workload reports must be exactly those BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, w := range spec.Workloads {
		declared[w.Name] = true
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			cfg := runConfig{workload: w, seed: 1, seconds: 1, scale: 0.1, root: root}
			plain := smokeRun(t, cfg)
			cfg.traced, cfg.spans = true, filepath.Join(t.TempDir(), "spans.jsonl")
			traced := smokeRun(t, cfg)
			res := merge(plain, traced)

			for _, c := range res.Checks {
				switch {
				case c.OK:
				case strings.HasSuffix(c.Name, "generator"):
					// A slow machine (or -race) delays the generator: the
					// run's numbers are refused, its outputs still checked.
					t.Logf("check %s: %s", c.Name, c.Detail)
				default:
					t.Errorf("check %s failed: %s", c.Name, c.Detail)
				}
			}
			if res.Offered == 0 || res.Accepted != res.Offered {
				t.Errorf("%d of %d bids accepted", res.Accepted, res.Offered)
			}
			if info, err := os.Stat(cfg.spans); err != nil || info.Size() == 0 {
				t.Errorf("traced run wrote no spans: %v", err)
			}

			var out bytes.Buffer
			printResult(&out, res)
			sc := bufio.NewScanner(&out)
			for sc.Scan() {
				f := strings.Fields(sc.Text())
				if len(f) < 3 || f[0] != w {
					t.Errorf("malformed output line %q", sc.Text())
				} else if f[1] != "env" && f[1] != "check" && !metricName.MatchString(f[1]) {
					t.Errorf("metric name %q does not match %v", f[1], metricName)
				}
			}

			e2e, layers := summaryNames(res, false), summaryNames(res, true)
			if !declared[w] {
				if !slices.Contains(e2e, "setup_s") || len(layers) == 0 {
					t.Errorf("undeclared workload reports end-to-end %v and per-layer %v", e2e, layers)
				}
				return
			}
			if want := names(spec.EndToEnd); !slices.Equal(e2e, want) {
				t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", e2e, want)
			}
			if want := names(spec.PerLayer); !slices.Equal(layers, want) {
				t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", layers, want)
			}
		})
	}
}

func TestJudge(t *testing.T) {
	seq := func(base, step float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = base + step*float64(i)
		}
		return out
	}
	bounded := specMetric{Name: "m", Better: "lower", Bound: 0.1}
	for _, tc := range []struct {
		name   string
		sm     specMetric
		pv, cv []float64
		want   string
	}{
		{"faster in every pair", bounded, seq(100, 1), seq(80, 1), "improved"},
		{"slower beyond the bound", bounded, seq(100, 1), seq(120, 1), "worse"},
		{"slower within the bound", bounded, seq(100, 1), seq(103, 1), "same"},
		{"spread wider than the bound", bounded, seq(100, 5), seq(104, 5), "unresolved: spread wider than the bound"},
		{"too few pairs", bounded, seq(100, 1)[:3], seq(80, 1)[:3], "unresolved: 3 pairs, need 10; medians beyond the bound"},
		{"higher is better", specMetric{Name: "m", Better: "higher", Bound: 0.1}, seq(100, 1), seq(80, 1), "worse"},
		{"no bound, parent wins", specMetric{Name: "m", Better: "lower"}, seq(100, 1), seq(120, 1), "worse"},
	} {
		row := judge("w", tc.sm, tc.pv, tc.cv)
		if !strings.HasSuffix(row, "  "+tc.want) {
			t.Errorf("%s: got row %q, want verdict %q", tc.name, row, tc.want)
		}
	}
}
