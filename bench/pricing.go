package main

// The pricing loop: the research path from universe through engine
// measurement and derived bids to the mechanism and a figure. It is a
// closed loop with one caller and touches no tier, journal or router.

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"sharedopt/internal/astro"
	"sharedopt/internal/engine"
	"sharedopt/internal/experiments"
	"sharedopt/internal/stats"
)

const (
	sweeps = 2
	// figureTrials is cmd/experiments' default effort; with seed 42 it
	// is what FIGURES.sha256 pins.
	figureTrials = 1000
)

func runPricing(cfg runConfig) (result, error) {
	res := result{Workload: "pricing-loop"}
	seed := 41 + cfg.seed // -seed 1 runs cmd/experiments' default seed 42
	trials := max(1, int(figureTrials*cfg.scale))
	var tr *tracer
	if cfg.traced {
		tr = newTracer(time.Now(), 0)
	}

	// Set-up generates the universe and measures its savings; the
	// figures reuse that measurement.
	start := time.Now()
	if err := tr.timed("experiments.EngineUserPools", func() error {
		_, err := experiments.EngineUserPools(seed)
		return err
	}); err != nil {
		return res, err
	}
	setup := time.Since(start).Seconds()

	ids := experiments.DerivedFigureIDs()
	hashes := make([]map[string]string, sweeps)
	perFigure := map[string][]float64{}
	var sweepTimes []float64
	for s := range hashes {
		hashes[s] = map[string]string{}
		sweepStart := time.Now()
		for _, id := range ids {
			figStart := time.Now()
			var fig *experiments.Figure
			err := tr.timed("experiments."+id, func() (err error) {
				fig, err = experiments.Run(id, trials, seed)
				return err
			})
			res.Offered++
			if err != nil {
				return res, fmt.Errorf("figure %s: %w", id, err)
			}
			res.Accepted++
			perFigure[id] = append(perFigure[id], time.Since(figStart).Seconds())
			hashes[s][id] = fmt.Sprintf("%x", sha256.Sum256([]byte(fig.CSV())))
		}
		sweepTimes = append(sweepTimes, time.Since(sweepStart).Seconds())
	}
	res.Metrics = []metric{
		{Name: "sweep_s", Value: stats.Percentile(sweepTimes, 0.5), Unit: "s"},
		{Name: "max_rss_mb", Value: maxRSSMB(), Unit: "MB"},
		{Name: "setup_s", Value: setup, Unit: "s"},
	}
	res.Checks = append(res.Checks, checkFigures(cfg, ids, hashes, trials))
	if tr == nil {
		return res, nil
	}

	for _, id := range ids {
		res.Metrics = append(res.Metrics, metric{Name: "experiments." + id + "_s", Value: stats.Percentile(perFigure[id], 0.5), Unit: "s", Layer: true})
	}
	layers, err := measureUniverse(tr, seed)
	if err != nil {
		return res, err
	}
	res.Metrics = append(res.Metrics, layers...)
	return res, tr.write(cfg.spans)
}

// measureUniverse times set-up's two stages separately, repeating the
// steps experiments.EngineUserPools takes on the universe the derived
// figures share, and counts the engine's metered work.
func measureUniverse(tr *tracer, seed uint64) ([]metric, error) {
	d := experiments.Fig2aEngineConfig(figureTrials, seed).DerivedConfig
	start := time.Now()
	var u *astro.Universe
	if err := tr.timed("astro.Generate", func() (err error) {
		u, err = astro.Generate(d.Universe)
		return err
	}); err != nil {
		return nil, err
	}
	generate := time.Since(start).Seconds()
	start = time.Now()
	var report *astro.SavingsReport
	if err := tr.timed("astro.MeasureSavings", func() error {
		users, err := astro.DefaultUsers(astro.NewTracker(u, d.LinkLen, d.MinMembers), 2)
		if err != nil {
			return err
		}
		report, err = astro.MeasureSavingsParallel(u, users, d.LinkLen, d.MinMembers, engine.DefaultCostModel(), runtime.GOMAXPROCS(0))
		return err
	}); err != nil {
		return nil, err
	}
	measure := time.Since(start).Seconds()
	// Each user runs once without views and once per view; a view run
	// costs the baseline minus its saving.
	var units int64
	for ui, base := range report.BaselineUnits {
		units += base
		for _, saving := range report.SavingUnits[ui] {
			units += base - saving
		}
	}
	return []metric{
		{Name: "astro.generate_s", Value: generate, Unit: "s", Layer: true},
		{Name: "astro.measure_s", Value: measure, Unit: "s", Layer: true},
		{Name: "engine.work_units", Value: float64(units), Unit: "count", Layer: true},
	}, nil
}

// checkFigures requires both sweeps to hash alike and, at the seed and
// effort FIGURES.sha256 pins, to match it.
func checkFigures(cfg runConfig, ids []string, hashes []map[string]string, trials int) check {
	c := check{Name: "figures", OK: true}
	for _, id := range ids {
		for s := 1; s < len(hashes); s++ {
			if hashes[s][id] != hashes[0][id] {
				c.failf("figure %s differs between sweep 1 and sweep %d", id, s+1)
			}
		}
	}
	if cfg.seed != 1 || trials != figureTrials {
		return c
	}
	golden, err := readFigureHashes(filepath.Join(cfg.root, "FIGURES.sha256"))
	if err != nil {
		c.failf("%v", err)
		return c
	}
	for _, id := range ids {
		if hashes[0][id] != golden[id] {
			c.failf("figure %s hashes to %s, FIGURES.sha256 pins %q", id, hashes[0][id], golden[id])
		}
	}
	return c
}

// readFigureHashes parses "hash  id" lines.
func readFigureHashes(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) == 2 {
			out[fields[1]] = fields[0]
		}
	}
	return out, sc.Err()
}
