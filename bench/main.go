// Command bench is the repository's benchmark: three workloads on the
// durable pricing tier and the pricing loop. Each workload runs in a
// fresh child process with GOMAXPROCS set to the CPU count, every run
// checks its outputs, and every metric prints as
// "workload metric value unit". The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. See
// README.md for the workloads, the metrics and how to compare commits.
//
// Run it from the repository root (Linux):
//
//	sh bench/run.sh -seed 1                        # every workload
//	sh bench/run.sh -workload season -trace 1      # plus a traced run
//	sh bench/run.sh -seed 2 -o change.jsonl        # append results to a file
//	sh bench/run.sh -compare parent.jsonl change.jsonl
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

var workloadNames = []string{"spot", "season", "subst-season", "pricing-loop"}

// childTimeout bounds one workload's process; a healthy run takes well
// under a minute.
const childTimeout = 150 * time.Second

type runConfig struct {
	workload string
	seed     uint64
	seconds  float64 // measured length of a tier workload's run
	scale    float64 // arrival rate (tier) or figure trials (pricing loop), relative to the benchmark's
	traced   bool
	spans    string // file the traced run writes its spans to ("" writes none)
	root     string // repository root
	tmp      string // directory for the run's journals
}

type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Layer bool    `json:"per_layer,omitempty"`
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is one workload's run, as a child prints it and as -o saves it.
type result struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Seconds  float64           `json:"seconds"`
	Traced   bool              `json:"traced"`
	Env      map[string]string `json:"env"`
	Offered  uint64            `json:"offered"`
	Accepted uint64            `json:"accepted"`
	Metrics  []metric          `json:"metrics"`
	Checks   []check           `json:"checks"`
}

func (r result) value(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

func (r result) ok() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "seed the workload inputs are generated from")
	seconds := flag.Float64("seconds", 16, "measured length of each tier workload's run")
	trace := flag.String("trace", "0", "0: untraced; 1: also a traced run, spans to .bench_build/spans-<workload>.jsonl; otherwise the spans file")
	out := flag.String("o", "", "append each workload's result as one JSON line to this file")
	compare := flag.Bool("compare", false, "compare two result files, parent then change, given as arguments")
	child := flag.String("child", "", "run this one workload in this process and print its result")
	spans := flag.String("spans", "", "with -child: trace the run and write its spans to this file")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	switch {
	case *compare:
		if err := compareFiles(os.Stdout, root, flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		return 0
	case *child != "":
		return runChildSide(runConfig{workload: *child, seed: *seed, seconds: *seconds, scale: 1,
			traced: *spans != "", spans: *spans, root: root})
	}

	names := workloadNames
	if *workload != "all" {
		if !slices.Contains(workloadNames, *workload) {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames, ", "))
			return 2
		}
		names = []string{*workload}
	}
	traced := *trace != "0" && *trace != ""
	var results []result
	for _, name := range names {
		res, err := runInChild(root, name, *seed, *seconds, "")
		if err == nil && traced {
			var tres result
			if tres, err = runInChild(root, name, *seed, *seconds, spansPath(root, *trace, name, len(names))); err == nil {
				res = merge(res, tres)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		printResult(os.Stdout, res)
		results = append(results, res)
	}
	if *out != "" {
		if err := appendResults(*out, results); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	sum := summarize(results, traced)
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	if !sum.Correct {
		return 1
	}
	return 0
}

// findRoot locates the repository root, the directory holding
// BENCHMARK.json: the working directory, or its parent when run from
// bench/.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("no BENCHMARK.json here or in the parent directory: run from the repository root")
}

func spansPath(root, trace, workload string, workloads int) string {
	if trace == "1" {
		return filepath.Join(root, ".bench_build", "spans-"+workload+".jsonl")
	}
	path, err := filepath.Abs(trace)
	if err != nil {
		path = trace
	}
	if workloads > 1 {
		ext := filepath.Ext(path)
		path = strings.TrimSuffix(path, ext) + "-" + workload + ext
	}
	return path
}

// runChildSide runs one workload in this process and prints its result as
// the last line of standard output.
func runChildSide(cfg runConfig) int {
	scratch := filepath.Join(cfg.root, ".bench_build", "tmp")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(scratch, cfg.workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	cfg.tmp = tmp
	res, err := runWorkload(cfg)
	if rmErr := os.RemoveAll(tmp); err == nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// runWorkload runs one workload in this process.
func runWorkload(cfg runConfig) (result, error) {
	var res result
	var err error
	if spec, ok := tierSpecNamed(cfg.workload); ok {
		res, err = runTier(cfg, spec)
	} else if cfg.workload == "pricing-loop" {
		res, err = runPricing(cfg)
	} else {
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return res, err
	}
	res.Seed, res.Seconds, res.Traced = cfg.seed, cfg.seconds, cfg.traced
	res.Env = environment(cfg)
	return res, nil
}

// runInChild runs one workload in a fresh process of this binary with
// GOMAXPROCS set to the CPU count, and reads back its result.
func runInChild(root, name string, seed uint64, seconds float64, spans string) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{"-child", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64)}
	if spans != "" {
		args = append(args, "-spans", spans)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("workload process: %w", err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("reading the workload's result: %w", err)
	}
	return res, nil
}

// merge joins an untraced run's metrics with the per-layer metrics only a
// traced run measures, and adds the tracing overhead: the largest
// relative gap between the two runs' headline latencies.
func merge(plain, traced result) result {
	out := plain
	out.Traced = true
	out.Metrics = slices.Clone(plain.Metrics)
	for _, m := range traced.Metrics {
		if _, ok := plain.value(m.Name); m.Layer && !ok {
			out.Metrics = append(out.Metrics, m)
		}
	}
	var gaps []float64
	for _, name := range []string{"ack_p50_us", "settle_p50_ms", "sweep_s"} {
		a, okA := plain.value(name)
		b, okB := traced.value(name)
		if okA && okB && a > 0 {
			gaps = append(gaps, b/a-1)
		}
	}
	if len(gaps) > 0 {
		out.Metrics = append(out.Metrics, metric{Name: "trace.overhead_frac", Value: slices.Max(gaps), Unit: "frac", Layer: true})
	}
	out.Checks = slices.Clone(plain.Checks)
	for _, c := range traced.Checks {
		c.Name = "traced " + c.Name
		out.Checks = append(out.Checks, c)
	}
	return out
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func printResult(w io.Writer, res result) {
	keys := make([]string, 0, len(res.Env))
	for k := range res.Env {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	env := make([]string, len(keys))
	for i, k := range keys {
		env[i] = k + "=" + res.Env[k]
	}
	fmt.Fprintf(w, "%s env %s\n", res.Workload, strings.Join(env, " "))
	for _, layer := range []bool{false, true} {
		for _, m := range res.Metrics {
			if m.Layer == layer {
				fmt.Fprintf(w, "%s %s %s %s\n", res.Workload, m.Name, formatValue(m.Value), m.Unit)
			}
		}
		if !layer {
			fmt.Fprintf(w, "%s failed_frac %s frac (offered %d, accepted %d)\n", res.Workload,
				formatValue(float64(res.Offered-res.Accepted)/float64(max(res.Offered, 1))), res.Offered, res.Accepted)
		}
	}
	for _, c := range res.Checks {
		if c.OK {
			fmt.Fprintf(w, "%s check %s ok\n", res.Workload, c.Name)
		} else {
			fmt.Fprintf(w, "%s check %s FAILED: %s\n", res.Workload, c.Name, c.Detail)
			fmt.Fprintf(os.Stderr, "bench: %s: check %s failed: %s\n", res.Workload, c.Name, c.Detail)
		}
	}
}

func appendResults(path string, results []result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, res := range results {
		if err := enc.Encode(res); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of output. Its metrics are the end-to-end ones
// of an untraced run and the per-layer ones of a traced run; with several
// workloads each name is prefixed with "workload/".
type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

func summarize(results []result, traced bool) summary {
	sum := summary{Correct: true, Metrics: map[string]valueUnit{}}
	for _, res := range results {
		sum.Correct = sum.Correct && res.ok()
		sum.Attempted += res.Offered
		sum.Failed += res.Offered - res.Accepted
		for _, m := range res.Metrics {
			if m.Layer != traced {
				continue
			}
			name := m.Name
			if len(results) > 1 {
				name = res.Workload + "/" + name
			}
			sum.Metrics[name] = valueUnit{m.Value, m.Unit}
		}
	}
	return sum
}
