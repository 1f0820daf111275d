package main

// The durable-tier workloads. Each one drives the production path — four
// ShardHosts over FileLog journals (one fsync per record) behind
// NewShardedServiceOver — with an open loop of seeded Poisson arrivals
// and an operator clock that settles every slot at its due time.

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sharedopt"
	"sharedopt/internal/core"
	"sharedopt/internal/econ"
	"sharedopt/internal/resilience"
	"sharedopt/internal/stats"
)

const (
	shards = 4
	// maxInflight caps the bids the generator keeps in flight. Reaching
	// it refuses the run: its latencies would measure the generator.
	maxInflight = 4096
	// lateLimit is the generator lateness (p99) above which a run is
	// refused for the same reason. It is one Go scheduler time slice: on
	// two CPUs the dispatcher can wait that long behind a settlement pass
	// and the GC, which is the runtime's doing, not the generator's.
	lateLimit = 10 * time.Millisecond
	// setupOpens is how often set-up opens the first tier; setup_s is
	// the median, so one slow file creation does not move it.
	setupOpens = 11
	// slack is the least time between a bid's release and the settlement
	// of its first slot. A bid turns retroactive, and fails, only if its
	// ack takes longer; stalls of up to 100 ms were seen on a shared
	// 2-CPU box, so a healthy run has no failures.
	slack = 120 * time.Millisecond
)

// tierSpec is the shape of one durable-tier workload.
type tierSpec struct {
	name        string
	kind        sharedopt.GameKind
	rate        float64       // arrivals per second
	opts        int           // optimizations in the catalog
	cost        econ.Money    // each optimization's cost per period
	slot        time.Duration // billing slot length
	horizon     int           // slots per period; 0 makes the whole run one period
	maxLen      int           // bid lengths are drawn from 1..maxLen slots
	cents       [2]int64      // per-slot values are drawn from cents[0]..cents[1]
	reviseFrac  float64       // share of tenants that revise after their first ack
	substitutes int           // substitutive bids name this many optimizations
}

var tierSpecs = []tierSpec{
	// Short periods of single-slot bids: the per-bid path and period
	// rollover dominate, the mechanism passes are small.
	{name: "spot", kind: sharedopt.Additive, rate: 8000, opts: 8, cost: 2 * econ.Dollar,
		slot: 25 * time.Millisecond, horizon: 12, maxLen: 1, cents: [2]int64{1, 60}},
	// One long period: every slot's AddOn pass covers every user so far,
	// in settlement and again in each shard replica.
	{name: "season", kind: sharedopt.Additive, rate: 3000, opts: 16, cost: 40 * econ.Dollar,
		slot: 40 * time.Millisecond, maxLen: 48, cents: [2]int64{1, 20}, reviseFrac: 0.2},
	// The same shape through SubstOn's phase loop.
	{name: "subst-season", kind: sharedopt.Substitutive, rate: 1200, opts: 12, cost: 20 * econ.Dollar,
		slot: 40 * time.Millisecond, maxLen: 48, cents: [2]int64{1, 20}, reviseFrac: 0.2, substitutes: 3},
}

func tierSpecNamed(name string) (tierSpec, bool) {
	for _, s := range tierSpecs {
		if s.name == name {
			return s, true
		}
	}
	return tierSpec{}, false
}

func (s tierSpec) catalog() []sharedopt.Optimization {
	out := make([]sharedopt.Optimization, s.opts)
	for i := range out {
		out[i] = sharedopt.Optimization{ID: core.OptID(i + 1), Cost: s.cost}
	}
	return out
}

func (s tierSpec) values(r *stats.RNG, n int) []econ.Money {
	out := make([]econ.Money, n)
	for i := range out {
		out[i] = econ.FromCents(s.cents[0] + int64(r.Intn(int(s.cents[1]-s.cents[0]+1))))
	}
	return out
}

// tierBid is one generated arrival. Slots are local to its period.
type tierBid struct {
	due        time.Duration // offset from the start of the measured window
	period     int
	user       core.UserID
	opt        core.OptID   // additive
	set        []core.OptID // substitutive
	start, end core.Slot
	values     []econ.Money
	// The revision, sent as soon as the first submission is acknowledged
	// when revValues is non-nil: values rise, the end moves later.
	revEnd    core.Slot
	revValues []econ.Money
}

// tierPlan is a workload's whole input, generated before the run.
type tierPlan struct {
	spec    tierSpec
	slots   int // billing slots in the run, over all periods
	horizon int // slots per period
	bids    []tierBid
}

func (p tierPlan) periods() int { return p.slots / p.horizon }

// makeTierPlan generates the arrivals of a run of the given length. A bid
// due in open slot s starts lead or lead+1 slots later, lead slots being
// at least the slack, and arrivals stop once such a start would fall
// after the last slot.
func makeTierPlan(spec tierSpec, seed uint64, seconds, scale float64) (tierPlan, error) {
	slots := int(seconds * float64(time.Second) / float64(spec.slot))
	horizon := spec.horizon
	if horizon == 0 {
		horizon = slots
	}
	lead := int((slack + spec.slot - 1) / spec.slot)
	if horizon < 2 || slots < horizon || slots < lead+2 {
		return tierPlan{}, fmt.Errorf("%s: %.3gs holds %d slots of %v, too few for one period", spec.name, seconds, slots, spec.slot)
	}
	plan := tierPlan{spec: spec, slots: slots / horizon * horizon, horizon: horizon}
	r := stats.NewRNG(seed)
	slotSec := spec.slot.Seconds()
	end := float64(plan.slots-lead-1) * slotSec
	mean := 1 / (spec.rate * scale)
	for t := r.ExpFloat64(mean); t < end; t += r.ExpFloat64(mean) {
		g := int(t/slotSec) + 1 + lead + r.Intn(2)
		b := tierBid{
			due:    time.Duration(t * float64(time.Second)),
			period: (g - 1) / horizon,
			user:   core.UserID(len(plan.bids) + 1),
		}
		b.start = core.Slot(g - b.period*horizon)
		b.end = min(b.start+core.Slot(r.Intn(spec.maxLen)), core.Slot(horizon))
		b.values = spec.values(r, int(b.end-b.start+1))
		if spec.kind == sharedopt.Additive {
			b.opt = core.OptID(1 + r.Intn(spec.opts))
		} else {
			for _, k := range r.SampleK(spec.opts, spec.substitutes) {
				b.set = append(b.set, core.OptID(k+1))
			}
		}
		if r.Float64() < spec.reviseFrac {
			b.revEnd = min(b.end+core.Slot(r.Intn(5)), core.Slot(horizon))
			b.revValues = spec.values(r, int(b.revEnd-b.start+1))
			for k, v := range b.values {
				b.revValues[k] = v + econ.FromCents(int64(1+r.Intn(10)))
			}
		}
		plan.bids = append(plan.bids, b)
	}
	if len(plan.bids) == 0 {
		return tierPlan{}, fmt.Errorf("%s: no arrivals in %.3gs", spec.name, seconds)
	}
	return plan, nil
}

// outcomes is the clients' own per-shard tally, reconciled against the
// tier's ShardStats after the run.
type outcomes struct {
	accepted, rejected, overloaded, readOnly, unavailable atomic.Uint64
}

func (o *outcomes) count(err error) {
	switch {
	case err == nil:
		o.accepted.Add(1)
	case errors.Is(err, resilience.ErrShardWedged):
		o.readOnly.Add(1)
	case errors.Is(err, resilience.ErrShardUnavailable):
		o.unavailable.Add(1)
	case errors.Is(err, resilience.ErrOverloaded):
		o.overloaded.Add(1)
	default:
		o.rejected.Add(1)
	}
}

// period is one pricing period's tier and journal files.
type period struct {
	ready chan struct{} // closed once the tier is open or failed to open
	dir   string
	tier  *resilience.ShardedService
	logs  []*resilience.FileLog
	err   error
	tally [shards]outcomes
}

// request is what one bid's goroutine observed: index 0 is the first
// submission, index 1 the revision.
type request struct {
	sent [2]bool
	err  [2]error
	lat  [2]time.Duration // from release (the first ack, for the revision) to return
}

// slotTiming is one settlement as the operator clock saw it.
type slotTiming struct {
	wait, settle time.Duration // from the slot's due time to entry and to return
	err          error
}

type tierRun struct {
	cfg     runConfig
	plan    tierPlan
	catalog []sharedopt.Optimization
	tr      *tracer // nil when untraced
	base    time.Time
	t0, t1  time.Duration // the measured window, as offsets from base
	periods []*period
	reqs    []request
	slots   []slotTiming
	opens   []float64 // set-up tier openings, seconds
	late    []float64 // generator lateness per arrival, ms
	inMax   int
	capHit  bool
}

func (r *tierRun) since() time.Duration { return time.Since(r.base) }

func (r *tierRun) sleepUntil(at time.Duration) {
	if d := at - r.since(); d > 0 {
		time.Sleep(d)
	}
}

// open creates a period's tier over fresh FileLogs in p.dir.
func (r *tierRun) open(p *period) error {
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return err
	}
	kind, horizon := r.plan.spec.kind, core.Slot(r.plan.horizon)
	links := make([]resilience.ShardTransport, shards)
	for i := range links {
		log, _, _, err := resilience.OpenFileLog(p.logPath(i))
		if err != nil {
			return err
		}
		p.logs = append(p.logs, log)
		var w io.Writer = log
		var ts *tracedShard
		if r.tr != nil {
			ts = &tracedShard{tr: r.tr, shard: i}
			w = &tracedLog{w: log, sh: ts}
		}
		host, err := resilience.NewShardHost(kind, r.catalog, horizon, i, shards, w)
		if err != nil {
			return err
		}
		links[i] = host
		if ts != nil {
			ts.host = host
			links[i] = ts
		}
	}
	tier, err := resilience.NewShardedServiceOver(kind, r.catalog, horizon, links, resilience.ShardedConfig{})
	p.tier = tier
	return err
}

func (p *period) logPath(shard int) string {
	return filepath.Join(p.dir, fmt.Sprintf("shard%d.log", shard))
}

func closeLogs(p *period) {
	for _, l := range p.logs {
		l.Close() // journals are fsync'd per record; nothing is left to flush
	}
	p.logs = nil
}

// openPeriod opens period i and releases everything waiting on it.
func (r *tierRun) openPeriod(i int) {
	p := r.periods[i]
	p.err = r.open(p)
	close(p.ready)
}

func (r *tierRun) setup() error {
	r.periods = make([]*period, r.plan.periods())
	for i := range r.periods {
		r.periods[i] = &period{ready: make(chan struct{}), dir: filepath.Join(r.cfg.tmp, fmt.Sprintf("p%03d", i))}
	}
	for k := 0; k < setupOpens; k++ {
		p := r.periods[0]
		if k < setupOpens-1 {
			p = &period{dir: filepath.Join(r.cfg.tmp, fmt.Sprintf("setup%d", k))}
		}
		start := time.Now()
		err := r.open(p)
		r.opens = append(r.opens, time.Since(start).Seconds())
		if p != r.periods[0] {
			closeLogs(p)
			if rmErr := os.RemoveAll(p.dir); err == nil {
				err = rmErr
			}
		}
		if err != nil {
			return fmt.Errorf("opening the first tier: %w", err)
		}
	}
	close(r.periods[0].ready)
	// Periods open one ahead of the clock, so bids for the next period
	// never wait for its files.
	if len(r.periods) > 1 {
		r.openPeriod(1)
		if err := r.periods[1].err; err != nil {
			return fmt.Errorf("opening the second tier: %w", err)
		}
	}
	return nil
}

// clock settles every slot at its due time; when a period's last slot is
// settled it opens the period after the next one.
func (r *tierRun) clock() {
	for g := 1; g <= r.plan.slots; g++ {
		due := r.t0 + time.Duration(g)*r.plan.spec.slot
		r.sleepUntil(due)
		p := r.periods[(g-1)/r.plan.horizon]
		<-p.ready
		enter := r.since()
		err := p.err
		if err == nil {
			if r.tr != nil {
				err = r.tr.advance(p.tier)
			} else {
				_, err = p.tier.AdvanceSlot()
			}
		}
		r.slots[g-1] = slotTiming{wait: enter - due, settle: r.since() - due, err: err}
		if next := g/r.plan.horizon + 1; g%r.plan.horizon == 0 && next < len(r.periods) {
			r.openPeriod(next)
		}
	}
}

func (r *tierRun) submit(p *period, b *tierBid, revision bool) error {
	start, end, values := b.start, b.end, b.values
	if revision {
		end, values = b.revEnd, b.revValues
	}
	call := func() error {
		if b.set == nil {
			return p.tier.SubmitAdditiveBid(b.opt, core.OnlineBid{User: b.user, Start: start, End: end, Values: values})
		}
		return p.tier.SubmitSubstitutiveBid(core.OnlineSubstBid{User: b.user, Opts: b.set, Start: start, End: end, Values: values})
	}
	var err error
	switch {
	case p.err != nil:
		err = p.err
	case r.tr != nil:
		err = r.tr.submit(b.user, call)
	default:
		err = call()
	}
	p.tally[resilience.ShardFor(b.user, shards)].count(err)
	return err
}

// runBid is one tenant released at offset rel: submit, and revise right
// after the first ack.
func (r *tierRun) runBid(i int, rel time.Duration) {
	b := &r.plan.bids[i]
	p := r.periods[b.period]
	req := &r.reqs[i]
	<-p.ready
	req.sent[0] = true
	req.err[0] = r.submit(p, b, false)
	acked := r.since()
	req.lat[0] = acked - rel
	if req.err[0] == nil && b.revValues != nil {
		req.sent[1] = true
		req.err[1] = r.submit(p, b, true)
		req.lat[1] = r.since() - acked
	}
}

// dispatch releases each arrival at its due time on its own goroutine and
// returns once every bid has finished. The dispatcher never waits for the
// tier, so a stall cannot delay releases; ack latency runs from release,
// and how late releases ran behind their due times is reported apart.
func (r *tierRun) dispatch() {
	sem := make(chan struct{}, maxInflight)
	var inflight atomic.Int64
	var wg sync.WaitGroup
	r.late = make([]float64, len(r.plan.bids))
	for i := range r.plan.bids {
		due := r.t0 + r.plan.bids[i].due
		r.sleepUntil(due)
		rel := r.since()
		r.late[i] = ms(rel - due)
		select {
		case sem <- struct{}{}:
		default:
			r.capHit = true
			sem <- struct{}{}
		}
		r.inMax = max(r.inMax, int(inflight.Add(1)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.runBid(i, rel)
			inflight.Add(-1)
			<-sem
		}()
	}
	wg.Wait()
}

func runTier(cfg runConfig, spec tierSpec) (result, error) {
	res := result{Workload: spec.name}
	plan, err := makeTierPlan(spec, cfg.seed, cfg.seconds, cfg.scale)
	if err != nil {
		return res, err
	}
	r := &tierRun{
		cfg:     cfg,
		plan:    plan,
		catalog: spec.catalog(),
		base:    time.Now(),
		reqs:    make([]request, len(plan.bids)),
		slots:   make([]slotTiming, plan.slots),
	}
	if cfg.traced {
		r.tr = newTracer(r.base, len(plan.bids))
	}
	defer func() {
		for _, p := range r.periods {
			closeLogs(p)
		}
	}()
	if err := r.setup(); err != nil {
		return res, err
	}

	runtime.GC() // start every run from the same heap state
	if r.tr != nil {
		r.tr.reset()
	}
	r.t0 = r.since() + time.Millisecond
	cpu0 := cpuTime()
	var clockDone sync.WaitGroup
	clockDone.Add(1)
	go func() {
		defer clockDone.Done()
		r.clock()
	}()
	r.dispatch()
	clockDone.Wait()
	r.t1 = r.since()
	cpu := cpuTime() - cpu0
	rss := maxRSSMB() // before the checks, whose reference replays are not the tier's memory
	for _, p := range r.periods {
		closeLogs(p)
	}

	js, err := r.readJournals()
	if err != nil {
		return res, err
	}
	// A failed bid or settlement counts as infinitely slow; MaxFloat64
	// stands in for infinity so every percentile stays a JSON number.
	var lat []float64
	for _, q := range r.reqs {
		for k := range q.sent {
			if !q.sent[k] {
				continue
			}
			res.Offered++
			if q.err[k] == nil {
				res.Accepted++
				lat = append(lat, us(q.lat[k]))
			} else {
				lat = append(lat, math.MaxFloat64)
			}
		}
	}
	settle := make([]float64, len(r.slots))
	for i, s := range r.slots {
		settle[i] = ms(s.settle)
		if s.err != nil {
			settle[i] = math.MaxFloat64
		}
	}
	// The latencies and CPU time are end-to-end numbers filed with the
	// per-layer ones: on a shared 2-CPU box they move 10-30% from run to
	// run, too much to gate a change on (see README.md).
	res.Metrics = []metric{
		{Name: "journal_bytes_per_bid", Value: float64(js.bytes) / float64(max(res.Accepted, 1)), Unit: "B"},
		{Name: "max_rss_mb", Value: rss, Unit: "MB"},
		{Name: "setup_s", Value: stats.Percentile(r.opens, 0.5), Unit: "s"},
		{Name: "ack_p50_us", Value: stats.Percentile(lat, 0.50), Unit: "us", Layer: true},
		{Name: "ack_p99_us", Value: stats.Percentile(lat, 0.99), Unit: "us", Layer: true},
		{Name: "settle_p50_ms", Value: stats.Percentile(settle, 0.50), Unit: "ms", Layer: true},
		{Name: "settle_p97_ms", Value: stats.Percentile(settle, 0.97), Unit: "ms", Layer: true},
		{Name: "cpu_us_per_bid", Value: us(cpu) / float64(res.Offered), Unit: "us", Layer: true},
	}

	res.Checks = append(res.Checks, r.checkGenerator(), r.checkAccounting(res.Offered))
	settled, costRecovery, users := r.checkSettlement()
	res.Checks = append(res.Checks, settled, costRecovery, r.checkRecovery())
	if r.tr != nil {
		layers, err := r.layerMetrics(js, users, res.Accepted)
		if err != nil {
			return res, err
		}
		res.Metrics = append(res.Metrics, layers...)
		if err := r.tr.write(cfg.spans); err != nil {
			return res, err
		}
	}
	return res, nil
}

func (r *tierRun) checkGenerator() check {
	c := check{Name: "generator", OK: true}
	if r.capHit {
		c.failf("refused: %d bids in flight, the generator's cap", maxInflight)
	}
	if p99 := stats.Percentile(r.late, 0.99); p99 > ms(lateLimit) {
		c.failf("refused: arrivals released %.2f ms late at p99 (limit %v)", p99, lateLimit)
	}
	return c
}

// layerMetrics derives the traced run's per-layer numbers.
func (r *tierRun) layerMetrics(js journalStats, users int, accepted uint64) ([]metric, error) {
	encode, err := encodeP50(js.recs)
	if err != nil {
		return nil, err
	}
	sp := r.tr.profile(int64(r.t0), int64(r.t1))
	waits := make([]float64, len(r.slots))
	for i, s := range r.slots {
		waits[i] = ms(s.wait)
	}
	layers := []metric{
		{Name: "gen.late_p99_ms", Value: stats.Percentile(r.late, 0.99), Unit: "ms"},
		{Name: "gen.inflight_max", Value: float64(r.inMax), Unit: "count"},
		{Name: "router.submit_self_p50_us", Value: sp.selfQ("router.submit", 0.5) / 1e3, Unit: "us"},
		{Name: "router.advance_self_p50_ms", Value: sp.selfQ("router.advance", 0.5) / 1e6, Unit: "ms"},
		{Name: "router.advance_self_p97_ms", Value: sp.selfQ("router.advance", 0.97) / 1e6, Unit: "ms"},
		{Name: "router.fold_bids_per_slot", Value: stats.Percentile(js.foldPerSlot, 0.5), Unit: "count"},
		{Name: "router.settle_wait_p50_ms", Value: stats.Percentile(waits, 0.5), Unit: "ms"},
		{Name: "shard.submit_p50_us", Value: sp.durQ("shard.submit", 0.5) / 1e3, Unit: "us"},
		{Name: "shard.submit_self_p50_us", Value: sp.selfQ("shard.submit", 0.5) / 1e3, Unit: "us"},
		{Name: "shard.advance_p50_ms", Value: sp.durQ("shard.advance", 0.5) / 1e6, Unit: "ms"},
		{Name: "shard.advance_self_p50_ms", Value: sp.selfQ("shard.advance", 0.5) / 1e6, Unit: "ms"},
		{Name: "shard.busy_frac", Value: sp.busy(shards, "shard.submit", "shard.advance"), Unit: "frac"},
		{Name: "journal.write_p50_us", Value: sp.durQ("journal.write", 0.5) / 1e3, Unit: "us"},
		{Name: "journal.write_p99_us", Value: sp.durQ("journal.write", 0.99) / 1e3, Unit: "us"},
		{Name: "journal.busy_frac", Value: sp.busy(shards, "journal.write"), Unit: "frac"},
		{Name: "journal.writes_per_bid", Value: float64(js.records) / float64(max(accepted, 1)), Unit: "count"},
		{Name: "journal.encode_p50_us", Value: encode, Unit: "us"},
		{Name: "journal.bytes_per_record", Value: float64(js.bytes) / float64(max(js.records, 1)), Unit: "B"},
		{Name: "service.advance_p50_ms", Value: sp.durQ("service.advance", 0.5) / 1e6, Unit: "ms"},
		{Name: "service.advance_p97_ms", Value: sp.durQ("service.advance", 0.97) / 1e6, Unit: "ms"},
		{Name: "service.submit_p50_us", Value: sp.durQ("service.submit", 0.5) / 1e3, Unit: "us"},
		{Name: "service.users_total", Value: float64(users), Unit: "count"},
	}
	for i := range layers {
		layers[i].Layer = true
	}
	return layers, nil
}

// encodeP50 appends the run's records to a journal on io.Discard and
// returns the median Append time: the codec's share of a journal write.
func encodeP50(recs []resilience.Record) (float64, error) {
	j := resilience.NewJournal(io.Discard)
	d := make([]float64, len(recs))
	for i, rec := range recs {
		start := time.Now()
		if err := j.Append(rec); err != nil {
			return 0, fmt.Errorf("re-encoding journal record %d: %w", rec.Seq, err)
		}
		d[i] = us(time.Since(start))
	}
	return stats.Percentile(d, 0.5), nil
}
