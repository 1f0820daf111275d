// Command pricer prices a JSON-described game with the paper's
// mechanisms and, optionally, compares against the regret baseline. With
// -load it instead runs an open-loop saturation sweep against a live
// sharded tier (see load.go), reporting sustained throughput and the
// knee of the latency curve.
//
// Usage:
//
//	pricer -f scenario.json
//	pricer -f scenario.json -compare-regret
//	cat scenario.json | pricer
//	pricer -load -shards 4 -rates 500,2500,10000,50000 -o LOAD_4shard.json
//
// Scenario format (amounts are dollar strings like "2.31"):
//
//	{
//	  "kind": "additive",            // or "substitutive"
//	  "horizon": 3,
//	  "optimizations": [{"id": 1, "cost": "100"}],
//	  "bids": [
//	    {"user": 1, "opt": 1, "start": 1, "end": 1, "values": ["101"]},
//	    {"user": 2, "opts": [1,2], "start": 1, "end": 2, "values": ["26","26"]}
//	  ]
//	}
//
// Additive bids carry "opt"; substitutive bids carry "opts".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"sharedopt/internal/core"
	"sharedopt/internal/econ"
	"sharedopt/internal/simulate"
)

type scenarioJSON struct {
	Kind          string    `json:"kind"`
	Horizon       core.Slot `json:"horizon"`
	Optimizations []struct {
		ID   core.OptID `json:"id"`
		Cost string     `json:"cost"`
	} `json:"optimizations"`
	Bids []struct {
		User   core.UserID  `json:"user"`
		Opt    core.OptID   `json:"opt"`
		Opts   []core.OptID `json:"opts"`
		Start  core.Slot    `json:"start"`
		End    core.Slot    `json:"end"`
		Values []string     `json:"values"`
	} `json:"bids"`
}

func main() {
	var (
		file    = flag.String("f", "-", "scenario file (- for stdin)")
		compare = flag.Bool("compare-regret", false, "also run the regret baseline")

		load        = flag.Bool("load", false, "run an open-loop saturation sweep over the sharded tier")
		seed        = flag.Uint64("seed", 1, "-load: base seed for the arrival schedule")
		shards      = flag.Int("shards", 4, "-load: shard count")
		rates       = flag.String("rates", "500,2500,10000,50000", "-load: offered-rate ladder, bids/s, strictly increasing")
		loadBids    = flag.Int("load-bids", 2000, "-load: scheduled bids per ladder step")
		maxBatch    = flag.Int("max-batch", 64, "-load: per-shard between-slots batch bound")
		settleEvery = flag.Duration("settle-every", 20*time.Millisecond, "-load: slot-advance interval")
		slo         = flag.Duration("slo", 10*time.Millisecond, "-load: p99 slot-advance latency objective")
		out         = flag.String("o", "", "-load: JSON report path (default LOAD_<shards>shard_<seed>.json)")
		requireKnee = flag.Bool("require-knee", false, "-load: exit non-zero if the ladder never saturates the tier")
	)
	flag.Parse()
	if *load {
		ladder, err := parseRates(*rates)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pricer: load:", err)
			os.Exit(1)
		}
		cfg := loadConfig{
			seed: *seed, shards: *shards, bidsPerStep: *loadBids,
			maxBatch: *maxBatch, rates: ladder,
			settleEvery: *settleEvery, slo: *slo,
			out: *out, requireKnee: *requireKnee,
		}
		if cfg.out == "" {
			cfg.out = fmt.Sprintf("LOAD_%dshard_%d.json", cfg.shards, cfg.seed)
		}
		if _, err := runLoad(cfg, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "pricer: load:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*file, *compare, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pricer:", err)
		os.Exit(1)
	}
}

func run(file string, compare bool, w io.Writer) error {
	var in io.Reader = os.Stdin
	if file != "-" {
		f, err := os.Open(file)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	var sc scenarioJSON
	dec := json.NewDecoder(in)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return fmt.Errorf("parsing scenario: %w", err)
	}
	opts := make([]core.Optimization, 0, len(sc.Optimizations))
	for _, o := range sc.Optimizations {
		cost, err := econ.ParseMoney(o.Cost)
		if err != nil {
			return err
		}
		opts = append(opts, core.Optimization{ID: o.ID, Cost: cost})
	}
	switch sc.Kind {
	case "additive":
		return runAdditive(sc, opts, compare, w)
	case "substitutive":
		return runSubstitutive(sc, opts, compare, w)
	default:
		return fmt.Errorf("unknown kind %q (want additive or substitutive)", sc.Kind)
	}
}

func parseValues(raw []string) ([]econ.Money, error) {
	out := make([]econ.Money, len(raw))
	for i, s := range raw {
		v, err := econ.ParseMoney(s)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func runAdditive(sc scenarioJSON, opts []core.Optimization, compare bool, w io.Writer) error {
	scenario := simulate.AdditiveScenario{Opts: opts, Horizon: sc.Horizon}
	for _, b := range sc.Bids {
		if len(b.Opts) > 0 {
			return fmt.Errorf("additive bid for user %d carries %q: additive bids name a single optimization with %q", b.User, "opts", "opt")
		}
		if b.Opt == 0 {
			return fmt.Errorf("additive bid for user %d names no optimization (missing %q)", b.User, "opt")
		}
		values, err := parseValues(b.Values)
		if err != nil {
			return fmt.Errorf("bid for user %d: %w", b.User, err)
		}
		scenario.Bids = append(scenario.Bids, simulate.AdditiveBid{
			User: b.User, Opt: b.Opt, Start: b.Start, End: b.End, Values: values,
		})
	}
	res, err := simulate.RunAddOn(scenario)
	if err != nil {
		return err
	}
	printResult(w, "AddOn mechanism", res)
	if compare {
		reg, err := simulate.RunRegretAdditive(scenario)
		if err != nil {
			return err
		}
		printResult(w, "Regret baseline", reg)
	}
	return printPayments(w, scenario)
}

func runSubstitutive(sc scenarioJSON, opts []core.Optimization, compare bool, w io.Writer) error {
	scenario := simulate.SubstScenario{Opts: opts, Horizon: sc.Horizon}
	for _, b := range sc.Bids {
		if b.Opt != 0 {
			return fmt.Errorf("substitutive bid for user %d carries %q: substitutive bids name an acceptable set with %q", b.User, "opt", "opts")
		}
		if len(b.Opts) == 0 {
			return fmt.Errorf("substitutive bid for user %d names no optimizations (missing %q)", b.User, "opts")
		}
		values, err := parseValues(b.Values)
		if err != nil {
			return fmt.Errorf("bid for user %d: %w", b.User, err)
		}
		scenario.Bids = append(scenario.Bids, core.OnlineSubstBid{
			User: b.User, Opts: b.Opts, Start: b.Start, End: b.End, Values: values,
		})
	}
	res, err := simulate.RunSubstOn(scenario)
	if err != nil {
		return err
	}
	printResult(w, "SubstOn mechanism", res)
	if compare {
		reg, err := simulate.RunRegretSubst(scenario)
		if err != nil {
			return err
		}
		printResult(w, "Regret baseline", reg)
	}
	return nil
}

func printResult(w io.Writer, title string, res simulate.Result) {
	fmt.Fprintf(w, "%s:\n", title)
	fmt.Fprintf(w, "  realized user value: %v\n", res.TotalValue)
	fmt.Fprintf(w, "  optimization cost:   %v\n", res.Cost)
	fmt.Fprintf(w, "  payments collected:  %v\n", res.Payments)
	fmt.Fprintf(w, "  total utility:       %v\n", res.Utility())
	fmt.Fprintf(w, "  cloud balance:       %v\n", res.Balance())
}

// printPayments re-runs the additive game slot by slot to show per-user
// invoices.
func printPayments(w io.Writer, sc simulate.AdditiveScenario) error {
	game := core.NewAdditiveGame(sc.Opts)
	users := map[core.UserID]bool{}
	for _, b := range sc.Bids {
		if err := game.Submit(b.Opt, core.OnlineBid{
			User: b.User, Start: b.Start, End: b.End, Values: b.Values,
		}); err != nil {
			return err
		}
		users[b.User] = true
	}
	payments := make(map[core.UserID]econ.Money)
	for t := core.Slot(1); t <= sc.Horizon; t++ {
		for u, p := range game.AdvanceSlot().Departures {
			payments[u] += p
		}
	}
	for u, p := range game.Close() {
		payments[u] += p
	}
	ids := make([]core.UserID, 0, len(users))
	for u := range users {
		ids = append(ids, u)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	fmt.Fprintln(w, "per-user payments:")
	for _, u := range ids {
		fmt.Fprintf(w, "  user %d pays %v\n", u, payments[u])
	}
	return nil
}
