package main

// bench -compare: the pair rule for a parent commit against a change,
// over result files that -o appended run by run.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"sharedopt/internal/stats"
)

// benchSpec is the part of BENCHMARK.json the command reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(root string) (benchSpec, error) {
	var spec benchSpec
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var res result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

// minPairs is the fewest parent/change pairs a verdict rests on.
const minPairs = 10

// compareFiles pairs the i-th run of each workload in the parent file
// with the i-th in the change file and prints one row per (workload,
// metric): the medians, the change in percent, the bound, how many pairs
// the change won, and the verdict.
func compareFiles(w io.Writer, root string, args []string) error {
	if len(args) != 2 {
		return errors.New("usage: bench -compare parent.jsonl change.jsonl")
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	declared := map[string]specMetric{}
	for _, m := range append(spec.PerLayer, spec.EndToEnd...) {
		declared[m.Name] = m
	}
	parent, err := readResults(args[0])
	if err != nil {
		return err
	}
	change, err := readResults(args[1])
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-13s %-28s %14s %14s %8s %6s %7s  %s\n", "workload", "metric", "parent", "change", "delta", "bound", "wins", "verdict")
	seen := map[string]bool{}
	for _, p := range parent {
		if seen[p.Workload] {
			continue
		}
		seen[p.Workload] = true
		ps, cs := runsOf(parent, p.Workload), runsOf(change, p.Workload)
		n := min(len(ps), len(cs))
		if n == 0 {
			fmt.Fprintf(w, "%-13s no runs in %s\n", p.Workload, args[1])
			continue
		}
		for _, m := range ps[0].Metrics {
			pv, cv := valuesOf(ps[:n], m.Name), valuesOf(cs[:n], m.Name)
			if len(pv) != n || len(cv) != n {
				continue // not measured in every run (a traced metric in an untraced run)
			}
			sm, ok := declared[m.Name]
			if !ok {
				sm = specMetric{Name: m.Name, Better: "lower"}
			}
			fmt.Fprintln(w, judge(p.Workload, sm, pv, cv))
		}
		var pf, cf uint64
		for i := 0; i < n; i++ {
			pf += ps[i].Offered - ps[i].Accepted
			cf += cs[i].Offered - cs[i].Accepted
		}
		verdict := "same"
		if cf > pf {
			verdict = "worse: a gain does not count when more operations fail"
		}
		fmt.Fprintf(w, "%-13s %-28s %14d %14d %8s %6s %7s  %s\n", p.Workload, "failed (total)", pf, cf, "", "", "", verdict)
	}
	return nil
}

func runsOf(results []result, workload string) []result {
	var out []result
	for _, r := range results {
		if r.Workload == workload {
			out = append(out, r)
		}
	}
	return out
}

func valuesOf(results []result, name string) []float64 {
	var out []float64
	for _, r := range results {
		if v, ok := r.value(name); ok {
			out = append(out, v)
		}
	}
	return out
}

// judge applies the pair rule to one metric. The change improved when it
// won at least nine pairs in ten (ties count for neither) and the medians
// differ by more than the parent's interquartile range. It is worse when
// its median is worse than the parent's by more than the bound, or, for
// a metric without a bound, when the parent wins by the same rule. A
// spread wider than the bound leaves the metric unresolved unless every
// change run beats every parent run.
func judge(workload string, sm specMetric, pv, cv []float64) string {
	lower := sm.Better != "higher"
	better := func(a, b float64) bool {
		if lower {
			return a < b
		}
		return a > b
	}
	n := len(pv)
	wins, losses := 0, 0
	for i := range pv {
		switch {
		case better(cv[i], pv[i]):
			wins++
		case better(pv[i], cv[i]):
			losses++
		}
	}
	pMed, cMed := stats.Percentile(pv, 0.5), stats.Percentile(cv, 0.5)
	iqr := stats.Percentile(pv, 0.75) - stats.Percentile(pv, 0.25)
	apart := math.Abs(cMed-pMed) > iqr
	var rel float64 // how much worse the change's median is, as a share
	if pMed != 0 {
		rel = (cMed - pMed) / math.Abs(pMed)
		if !lower {
			rel = -rel
		}
	}
	bounded := sm.Bound > 0
	var verdict string
	switch {
	case n < minPairs:
		verdict = fmt.Sprintf("unresolved: %d pairs, need %d", n, minPairs)
		if bounded {
			within := "within"
			if math.Abs(rel) > sm.Bound {
				within = "beyond"
			}
			verdict += "; medians " + within + " the bound"
		}
	case wins*10 >= 9*n && apart:
		verdict = "improved"
	case bounded && rel > sm.Bound:
		verdict = "worse"
	case !bounded && losses*10 >= 9*n && apart:
		verdict = "worse"
	case bounded && pMed != 0 && iqr/math.Abs(pMed) > sm.Bound && !allBetter(cv, pv, better):
		verdict = "unresolved: spread wider than the bound"
	default:
		verdict = "same"
	}
	bound := ""
	if bounded {
		bound = fmt.Sprintf("%.0f%%", 100*sm.Bound)
	}
	delta := ""
	if pMed != 0 {
		delta = fmt.Sprintf("%+.1f%%", 100*(cMed-pMed)/math.Abs(pMed))
	}
	return fmt.Sprintf("%-13s %-28s %14.6g %14.6g %8s %6s %3d/%-3d  %s", workload, sm.Name, pMed, cMed, delta, bound, wins, n, verdict)
}

// allBetter reports whether every change run beats every parent run.
func allBetter(cv, pv []float64, better func(a, b float64) bool) bool {
	for _, c := range cv {
		for _, p := range pv {
			if !better(c, p) {
				return false
			}
		}
	}
	return true
}
