package main

// Load mode: an open-loop saturation sweep over the sharded durable
// pricing tier. Each step of the rate ladder builds a fresh N-shard
// tier (in-memory journals, obs registry attached), derives a seeded
// arrival schedule from stats.Interarrivals at the step's offered rate,
// and replays it open-loop: a dispatcher walks the schedule on the wall
// clock and fires one goroutine per arrival, so a slow tier cannot slow
// the offered load down (no coordinated omission — late bids pile up
// instead of stretching the schedule). A settle ticker advances the
// billing slot at a fixed interval throughout; a final ClosePeriod
// settles whatever is still batched.
//
// Each step records what the tier sustained (accepted bids/s), what it
// shed (ErrOverloaded), and the p99 slot-advance latency from the
// tier.advance_ns histogram. The knee is the first step that violates
// the latency SLO or sheds load. Before a step is reported, its
// accounting must reconcile exactly: the clients' own outcome tally is
// checked against ShardStats with tiercheck.Accounting, and every
// accepted bid must be settled (tiercheck.Settled). ShardStats reads the
// same counters the registry exports, so there is no second book to
// compare. Any mismatch is an error, not a statistic.
//
// The JSON report (LOAD_*.json) separates the deterministic plan —
// seed, ladder, per-step offered counts and mean gaps, which is
// byte-identical across same-seed runs — from the measured outcome
// fields; see docs/load-harness.md.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sharedopt"
	"sharedopt/internal/core"
	"sharedopt/internal/econ"
	"sharedopt/internal/obs"
	"sharedopt/internal/resilience"
	"sharedopt/internal/stats"
	"sharedopt/internal/tiercheck"
)

// loadConfig is one sweep's full parameterization.
type loadConfig struct {
	seed        uint64
	shards      int
	bidsPerStep int
	maxBatch    int
	rates       []float64     // offered rates, bids/s, in ladder order
	settleEvery time.Duration // slot-advance interval
	slo         time.Duration // p99 slot-advance latency objective
	out         string        // JSON report path ("" writes none)
	requireKnee bool          // error if the ladder never saturates the tier
}

// loadStep is one rung of the ladder. Plan fields are a pure function
// of (seed, config) and reproduce byte-identically; outcome fields
// depend on the wall clock.
type loadStep struct {
	// Plan.
	OfferedRate float64 `json:"offered_rate"` // bids/s the schedule targets
	Offered     int     `json:"offered"`      // scheduled submissions
	MeanGapNs   int64   `json:"mean_gap_ns"`  // realized schedule mean gap

	// Outcome.
	Accepted     uint64  `json:"accepted"`
	Rejected     uint64  `json:"rejected"` // mechanism rejections (retroactive races)
	Overloaded   uint64  `json:"overloaded"`
	Advances     uint64  `json:"advances"`
	ElapsedNs    int64   `json:"elapsed_ns"`
	SustainedBPS float64 `json:"sustained_bids_per_sec"`
	P99AdvanceNs int64   `json:"p99_advance_ns"`
	SLOViolated  bool    `json:"slo_violated"`
}

// loadReport is the LOAD_*.json document.
type loadReport struct {
	Seed          uint64     `json:"seed"`
	Shards        int        `json:"shards"`
	MaxBatch      int        `json:"max_batch"`
	BidsPerStep   int        `json:"bids_per_step"`
	SettleEveryNs int64      `json:"settle_every_ns"`
	SLONs         int64      `json:"slo_ns"`
	Steps         []loadStep `json:"steps"`
	KneeIndex     int        `json:"knee_index"` // -1: ladder never saturated
	KneeRate      float64    `json:"knee_rate"`  // offered rate at the knee (0 if none)
}

// Canonical returns the report with every wall-clock-dependent field
// zeroed, leaving only the deterministic plan. Same seed and config ⇒
// byte-identical canonical JSON, which is what the reproducibility test
// pins.
func (r loadReport) Canonical() loadReport {
	out := r
	out.Steps = make([]loadStep, len(r.Steps))
	for i, s := range r.Steps {
		out.Steps[i] = loadStep{
			OfferedRate: s.OfferedRate,
			Offered:     s.Offered,
			MeanGapNs:   s.MeanGapNs,
		}
	}
	out.KneeIndex = 0
	out.KneeRate = 0
	return out
}

// scheduledBid is one precomputed arrival: the dispatcher fires it At
// nanoseconds after the step starts. All randomness is drawn up front
// on one goroutine so the schedule is a pure function of the seed.
type scheduledBid struct {
	at    time.Duration
	user  core.UserID
	cents int64
}

// buildSchedule derives step stepIdx's arrival schedule. Users are
// globally unique across steps so journals never see cross-step
// duplicates.
func buildSchedule(cfg loadConfig, stepIdx int) []scheduledBid {
	r := stats.NewRNG(cfg.seed + uint64(stepIdx)*1_000_003)
	rate := cfg.rates[stepIdx]
	gaps := stats.Interarrivals(r, cfg.bidsPerStep, 1.0/rate)
	sched := make([]scheduledBid, len(gaps))
	at := 0.0
	for i, g := range gaps {
		at += g
		sched[i] = scheduledBid{
			at:    time.Duration(at * float64(time.Second)),
			user:  core.UserID(1 + stepIdx*cfg.bidsPerStep + i),
			cents: int64(50 + r.Intn(500)),
		}
	}
	return sched
}

// meanGap returns the schedule's realized mean interarrival gap.
func meanGap(sched []scheduledBid) time.Duration {
	if len(sched) == 0 {
		return 0
	}
	return sched[len(sched)-1].at / time.Duration(len(sched))
}

// runLoadStep drives one rung and returns its record after exact
// reconciliation.
func runLoadStep(cfg loadConfig, stepIdx int, reg *obs.Registry) (loadStep, error) {
	sched := buildSchedule(cfg, stepIdx)
	step := loadStep{
		OfferedRate: cfg.rates[stepIdx],
		Offered:     len(sched),
		MeanGapNs:   int64(meanGap(sched)),
	}

	_, writers := tiercheck.MemWriters(cfg.shards)
	// Horizon sized so the settle ticker cannot exhaust the period even
	// if the step runs far past its scheduled duration.
	ticks := int(sched[len(sched)-1].at/cfg.settleEvery) + 1
	horizon := core.Slot(ticks*4 + 64)
	catalog := []sharedopt.Optimization{{ID: 1, Cost: econ.FromDollars(10)}}
	ss, err := resilience.NewShardedService(sharedopt.Additive, catalog, horizon, writers,
		resilience.ShardedConfig{MaxBatch: cfg.maxBatch, Obs: reg})
	if err != nil {
		return step, err
	}

	tally := tiercheck.NewTally()
	var advances atomic.Uint64

	// The settle ticker advances the billing slot at the configured
	// cadence until the dispatcher and every in-flight bid are done.
	stop := make(chan struct{})
	var settleWG sync.WaitGroup
	settleWG.Add(1)
	go func() {
		defer settleWG.Done()
		tk := time.NewTicker(cfg.settleEvery)
		defer tk.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tk.C:
				if _, err := ss.AdvanceSlot(); err == nil {
					advances.Add(1)
				} else if errors.Is(err, sharedopt.ErrPeriodOver) {
					return
				}
			}
		}
	}()

	// Open-loop dispatch: walk the schedule on the wall clock, one
	// goroutine per arrival. Each bid targets the next unsettled slot at
	// the moment it fires; a settle racing past it turns the bid
	// retroactive and the mechanism rejects it — counted, not lost.
	start := time.Now()
	var bidWG sync.WaitGroup
	for i := range sched {
		b := sched[i]
		if d := b.at - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		bidWG.Add(1)
		go func() {
			defer bidWG.Done()
			slot := ss.Now() + 1
			tally.Submit(b.user, false, resilience.Backoff{Attempts: 1}, func() error {
				return ss.SubmitAdditiveBid(1, core.OnlineBid{
					User: b.user, Start: slot, End: slot,
					Values: []econ.Money{econ.FromCents(b.cents)},
				})
			})
		}()
	}
	bidWG.Wait()
	close(stop)
	settleWG.Wait()
	if _, err := ss.ClosePeriod(); err != nil {
		return step, fmt.Errorf("rate %.0f: close: %w", step.OfferedRate, err)
	}
	elapsed := time.Since(start)

	// Exact reconciliation: the tier's books must match the clients'.
	perShard := ss.ShardStats()
	if err := tiercheck.Accounting(perShard, tally, step.Offered); err != nil {
		return step, fmt.Errorf("rate %.0f: %w", step.OfferedRate, err)
	}
	if err := tiercheck.Settled(perShard); err != nil {
		return step, fmt.Errorf("rate %.0f: %w", step.OfferedRate, err)
	}
	t := tally.Total()
	step.Accepted, step.Rejected, step.Overloaded = t.Accepted, t.Rejected, t.Overloaded

	step.Advances = advances.Load()
	step.ElapsedNs = int64(elapsed)
	step.SustainedBPS = float64(step.Accepted) / elapsed.Seconds()
	if h, ok := reg.Snapshot().Hists["tier.advance_ns"]; ok && h.Count > 0 {
		step.P99AdvanceNs = int64(h.Quantile(0.99))
	}
	step.SLOViolated = step.P99AdvanceNs > int64(cfg.slo)
	return step, nil
}

// runLoad executes the full ladder and writes the human summary to w
// and the JSON report to cfg.out.
func runLoad(cfg loadConfig, w io.Writer) (*loadReport, error) {
	if cfg.shards < 1 || cfg.bidsPerStep < 1 || len(cfg.rates) == 0 {
		return nil, errors.New("load needs shards >= 1, bids >= 1, and a non-empty rate ladder")
	}
	for i, r := range cfg.rates {
		if r <= 0 {
			return nil, fmt.Errorf("rate %d of the ladder is %v, want > 0", i, r)
		}
		if i > 0 && r <= cfg.rates[i-1] {
			return nil, fmt.Errorf("rate ladder must strictly increase, got %v after %v", r, cfg.rates[i-1])
		}
	}
	report := &loadReport{
		Seed:          cfg.seed,
		Shards:        cfg.shards,
		MaxBatch:      cfg.maxBatch,
		BidsPerStep:   cfg.bidsPerStep,
		SettleEveryNs: int64(cfg.settleEvery),
		SLONs:         int64(cfg.slo),
		KneeIndex:     -1,
	}
	fmt.Fprintf(w, "load: %d shards, max batch %d, settle every %v, p99 SLO %v, %d bids/step, seed %d\n",
		cfg.shards, cfg.maxBatch, cfg.settleEvery, cfg.slo, cfg.bidsPerStep, cfg.seed)
	fmt.Fprintf(w, "%12s %9s %9s %10s %13s %12s\n",
		"offered/s", "accepted", "shed", "advances", "sustained/s", "p99 advance")
	for i := range cfg.rates {
		// A fresh registry per step: each rung's histograms and counters
		// describe that rung alone.
		step, err := runLoadStep(cfg, i, obs.NewRegistry())
		if err != nil {
			return nil, err
		}
		report.Steps = append(report.Steps, step)
		mark := ""
		if report.KneeIndex < 0 && (step.SLOViolated || step.Overloaded > 0) {
			report.KneeIndex = i
			report.KneeRate = step.OfferedRate
			mark = "  <- knee"
		}
		fmt.Fprintf(w, "%12.0f %9d %9d %10d %13.0f %12s%s\n",
			step.OfferedRate, step.Accepted, step.Overloaded, step.Advances,
			step.SustainedBPS, time.Duration(step.P99AdvanceNs).Round(time.Microsecond), mark)
	}
	if report.KneeIndex >= 0 {
		k := report.Steps[report.KneeIndex]
		why := "p99 slot advance over SLO"
		if k.Overloaded > 0 {
			why = fmt.Sprintf("shed %d bids", k.Overloaded)
		}
		fmt.Fprintf(w, "knee at %.0f bids/s (%s); last clean rung sustained %.0f bids/s\n",
			report.KneeRate, why, sustainedBefore(report))
	} else {
		fmt.Fprintf(w, "no knee: the tier absorbed the whole ladder\n")
		if cfg.requireKnee {
			return nil, fmt.Errorf("ladder topped out at %.0f bids/s without saturating the tier (-require-knee)",
				cfg.rates[len(cfg.rates)-1])
		}
	}
	if cfg.out != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(cfg.out, append(data, '\n'), 0o644); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "report: %s\n", cfg.out)
	}
	return report, nil
}

// sustainedBefore returns the sustained rate of the last rung before
// the knee (or 0 when the knee is the first rung).
func sustainedBefore(r *loadReport) float64 {
	if r.KneeIndex <= 0 {
		return 0
	}
	return r.Steps[r.KneeIndex-1].SustainedBPS
}

// parseRates parses the -rates ladder ("500,2500,10000").
func parseRates(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad rate %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}
