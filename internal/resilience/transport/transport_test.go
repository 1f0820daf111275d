package transport

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"sharedopt"
	"sharedopt/internal/core"
	"sharedopt/internal/econ"
	"sharedopt/internal/obs"
	"sharedopt/internal/resilience"
	"sharedopt/internal/tiercheck"
)

func testCatalog() []sharedopt.Optimization {
	return []sharedopt.Optimization{
		{ID: 1, Cost: econ.FromCents(800)},
		{ID: 2, Cost: econ.FromCents(1200)},
	}
}

// abid builds an additive bid record for user u over [start, end] with
// one value per slot.
func abid(u core.UserID, opt core.OptID, start, end core.Slot, cents ...int64) resilience.Record {
	vals := make([]econ.Money, len(cents))
	for i, c := range cents {
		vals[i] = econ.FromCents(c)
	}
	return resilience.Record{
		Kind: resilience.KindAdditiveBid, Opt: opt,
		User: u, Start: start, End: end, Values: vals,
	}
}

func newTestHost(t *testing.T, shard, shards int) (*resilience.ShardHost, *resilience.MemLog) {
	t.Helper()
	var m resilience.MemLog
	h, err := resilience.NewShardHost(sharedopt.Additive, testCatalog(), 4, shard, shards, &m)
	if err != nil {
		t.Fatalf("NewShardHost: %v", err)
	}
	return h, &m
}

// newTestPair serves host over TCP and returns a connected client whose
// connections suffer fault's schedule (none when fault is nil).
func newTestPair(t *testing.T, host resilience.ShardTransport, cfg ClientConfig, fault *NetFault) (*ShardServer, *ShardClient, *dialTarget) {
	t.Helper()
	srv := NewShardServer(host)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(srv.Close)
	box := newDialTarget(addr)
	cfg.Dial = box.Dial
	if fault != nil {
		cfg.Dial = fault.WrapDial(box.Dial)
	}
	cli, err := NewShardClient(cfg)
	if err != nil {
		t.Fatalf("NewShardClient: %v", err)
	}
	t.Cleanup(cli.Close)
	return srv, cli, box
}

// TestTCPRoundTrip drives every op over a real socket and checks the
// error contract: duplicates acknowledge with the original Seq,
// mechanism rejections come back definitive (neither unavailable nor
// broken), and markers stay idempotent across the wire.
func TestTCPRoundTrip(t *testing.T) {
	host, _ := newTestHost(t, 0, 1)
	_, cli, _ := newTestPair(t, host, ClientConfig{}, nil)
	ctx := context.Background()

	info, err := cli.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if info.Shard != 0 || info.Shards != 1 || info.Bids != 0 || info.Now != 0 {
		t.Fatalf("fresh shard info = %+v", info)
	}

	rec := abid(7, 1, 1, 2, 300, 400)
	res, err := cli.Submit(ctx, rec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if !res.Fresh || res.Seq == 0 {
		t.Fatalf("fresh submit acked %+v", res)
	}
	dup, err := cli.Submit(ctx, rec)
	if err != nil {
		t.Fatalf("duplicate Submit: %v", err)
	}
	if dup.Fresh || dup.Seq != res.Seq {
		t.Fatalf("duplicate acked %+v, want Fresh=false Seq=%d", dup, res.Seq)
	}

	// A mechanism rejection crosses the wire as a definitive error.
	_, err = cli.Submit(ctx, abid(9, 1, 3, 1, 100))
	if err == nil {
		t.Fatal("inverted bid interval accepted")
	}
	if errors.Is(err, resilience.ErrShardUnavailable) || errors.Is(err, resilience.ErrJournalBroken) {
		t.Fatalf("mechanism rejection decoded as %v", err)
	}

	if err := cli.Advance(ctx, 1); err != nil {
		t.Fatalf("Advance: %v", err)
	}
	if err := cli.Advance(ctx, 1); err != nil {
		t.Fatalf("duplicate Advance: %v", err)
	}
	if err := cli.Advance(ctx, 3); err == nil {
		t.Fatal("window-gap Advance accepted")
	}
	if err := cli.ClosePeriod(ctx); err != nil {
		t.Fatalf("ClosePeriod: %v", err)
	}
	info, err = cli.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats after close: %v", err)
	}
	if info.Now != 1 || !info.Closed || info.Bids != 1 {
		t.Fatalf("closed shard info = %+v", info)
	}
}

// slowHost blocks every call until the server-side context expires,
// recording whether a deadline crossed the wire.
type slowHost struct {
	resilience.ShardTransport
	sawDeadline chan bool
}

func (h *slowHost) Submit(ctx context.Context, rec resilience.Record) (resilience.SubmitResult, error) {
	_, ok := ctx.Deadline()
	h.sawDeadline <- ok
	<-ctx.Done()
	return resilience.SubmitResult{}, fmt.Errorf("%w: %w", resilience.ErrShardUnavailable, ctx.Err())
}

// TestTCPDeadlinePropagation: the client's remaining context budget
// re-arms on the server, so a stalled shard call fails unavailable at
// the deadline instead of hanging forever.
func TestTCPDeadlinePropagation(t *testing.T) {
	inner, _ := newTestHost(t, 0, 1)
	host := &slowHost{ShardTransport: inner, sawDeadline: make(chan bool, 8)}
	_, cli, _ := newTestPair(t, host, ClientConfig{
		CallTimeout: 50 * time.Millisecond,
		Retry:       resilience.Backoff{Attempts: 1},
	}, nil)

	start := time.Now()
	_, err := cli.Submit(context.Background(), abid(1, 1, 1, 1, 100))
	if !errors.Is(err, resilience.ErrShardUnavailable) {
		t.Fatalf("stalled submit: %v", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("deadline ignored: waited %v", waited)
	}
	if saw := <-host.sawDeadline; !saw {
		t.Fatal("server-side context carried no deadline")
	}
}

// TestDuplicateDeliveryDedup (satellite): with every request delivered
// twice, each bid still journals exactly once — whichever delivery the
// server handles second resolves through digest dedup, the client
// is acknowledged with the journaled record's sequence either way, and
// the extra reply is dropped as a stray on the client.
func TestDuplicateDeliveryDedup(t *testing.T) {
	host, m := newTestHost(t, 0, 1)
	reg := obs.NewRegistry()
	_, cli, _ := newTestPair(t, host, ClientConfig{Obs: reg}, NewNetFault(NetFaultConfig{Dup: 1}, 11))
	ctx := context.Background()

	const bids = 5
	acked := map[core.UserID]uint64{}
	for u := core.UserID(1); u <= bids; u++ {
		// The two deliveries race on the server, so the reply that
		// arrives first may be either one's: Fresh is not determined,
		// the acknowledged sequence is.
		res, err := cli.Submit(ctx, abid(u, 1, 1, 2, 100, 200))
		if err != nil {
			t.Fatalf("user %d: %v", u, err)
		}
		acked[u] = res.Seq
	}

	recs, _, torn := resilience.ReadJournal(m.Bytes())
	if torn {
		t.Fatal("journal torn")
	}
	got := 0
	for _, rec := range recs {
		if rec.Kind == resilience.KindAdditiveBid {
			got++
			if acked[rec.User] != rec.Seq {
				t.Fatalf("user %d acknowledged with seq %d, journaled at %d", rec.User, acked[rec.User], rec.Seq)
			}
		}
	}
	if got != bids {
		t.Fatalf("journal holds %d bid records, want %d (duplicated deliveries double-journaled)", got, bids)
	}

	// The duplicate replies surface as strays once their frames drain.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if reg.Snapshot().Counters["shard0.net_stray_replies"] >= bids {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stray replies = %d, want >= %d", reg.Snapshot().Counters["shard0.net_stray_replies"], bids)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBreakerTransitions walks the full state machine on a fake clock:
// closed to open after Failures consecutive transients, fast-fails while
// open, a single half-open probe after the cooldown, probe failure
// reopening, probe success closing.
func TestBreakerTransitions(t *testing.T) {
	now := time.Unix(0, 0)
	reg := obs.NewRegistry()
	br := NewBreaker(BreakerConfig{
		Failures: 3,
		Cooldown: time.Second,
		Clock:    func() time.Time { return now },
		Obs:      reg,
		Shard:    2,
	})
	transient := fmt.Errorf("%w: injected", resilience.ErrShardUnavailable)
	opens := func() uint64 { return reg.Snapshot().Counters["shard2.net_breaker_open"] }

	for i := 0; i < 2; i++ {
		br.Do(func() error { return transient })
		if got := br.State(); got != BreakerClosed {
			t.Fatalf("after %d failures state = %v, want closed", i+1, got)
		}
	}
	br.Do(func() error { return transient })
	if got := br.State(); got != BreakerOpen {
		t.Fatalf("after trip state = %v, want open", got)
	}
	if opens() != 1 {
		t.Fatalf("opens counter = %d, want 1", opens())
	}

	// Open: fast-fail, the op must not run.
	ran := false
	err := br.Do(func() error { ran = true; return nil })
	if ran || !errors.Is(err, resilience.ErrShardUnavailable) {
		t.Fatalf("open breaker ran op (ran=%v err=%v)", ran, err)
	}

	// Cooldown elapses: one probe is admitted; its failure reopens.
	now = now.Add(time.Second)
	if got := br.State(); got != BreakerHalfOpen {
		t.Fatalf("post-cooldown state = %v, want half-open", got)
	}
	calls := 0
	br.Do(func() error { calls++; return transient })
	if calls != 1 || br.State() != BreakerOpen || opens() != 2 {
		t.Fatalf("failed probe: calls=%d state=%v opens=%d, want 1/open/2", calls, br.State(), opens())
	}

	// Second cooldown: the probe succeeds and the breaker closes.
	now = now.Add(time.Second)
	if err := br.Do(func() error { return nil }); err != nil {
		t.Fatalf("successful probe returned %v", err)
	}
	if got := br.State(); got != BreakerClosed {
		t.Fatalf("post-probe state = %v, want closed", got)
	}

	// A definitive rejection proves the shard answers: it closes the
	// breaker even though the call failed.
	br.Do(func() error { return transient })
	br.Do(func() error { return transient })
	definitive := errors.New("bid is retroactive")
	if err := br.Do(func() error { return definitive }); !errors.Is(err, definitive) {
		t.Fatalf("definitive error rewritten to %v", err)
	}
	br.Do(func() error { return transient })
	br.Do(func() error { return transient })
	if got := br.State(); got != BreakerClosed {
		t.Fatalf("definitive outcome did not reset the failure streak: %v", got)
	}
}

// TestBreakerHalfOpenSingleProbe: concurrent callers hitting a breaker
// in its half-open window admit exactly one probe.
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	now := time.Unix(0, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	br := NewBreaker(BreakerConfig{Failures: 1, Cooldown: time.Second, Clock: clock})
	transient := fmt.Errorf("%w: injected", resilience.ErrShardUnavailable)
	br.Do(func() error { return transient }) // trip
	mu.Lock()
	now = now.Add(time.Second)
	mu.Unlock()

	var probes int32
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			br.Do(func() error {
				mu.Lock()
				probes++
				mu.Unlock()
				<-gate // hold the probe slot so the others race admit()
				return nil
			})
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()
	if probes != 1 {
		t.Fatalf("half-open admitted %d probes, want 1", probes)
	}
}

// TestClientBreakerFastFail wires the breaker into a client whose
// server is gone: once tripped, further calls fail fast without touching
// the network, and a restarted server heals through the half-open probe.
func TestClientBreakerFastFail(t *testing.T) {
	host, _ := newTestHost(t, 0, 1)
	now := time.Unix(0, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	reg := obs.NewRegistry()
	br := NewBreaker(BreakerConfig{Failures: 2, Cooldown: time.Minute, Clock: clock, Obs: reg})
	srv, cli, box := newTestPair(t, host, ClientConfig{
		CallTimeout: 100 * time.Millisecond,
		Retry:       resilience.Backoff{Attempts: 1},
		Breaker:     br,
		Obs:         reg,
	}, nil)
	ctx := context.Background()
	srv.Close()

	for i := 0; br.State() != BreakerOpen; i++ {
		if i > 10 {
			t.Fatal("breaker never tripped against a dead server")
		}
		if _, err := cli.Submit(ctx, abid(1, 1, 1, 1, 100)); !errors.Is(err, resilience.ErrShardUnavailable) {
			t.Fatalf("dead-server submit: %v", err)
		}
	}
	wire := reg.Snapshot().Counters["shard0.net_requests"]
	if _, err := cli.Submit(ctx, abid(1, 1, 1, 1, 100)); !errors.Is(err, resilience.ErrShardUnavailable) {
		t.Fatalf("open-breaker submit: %v", err)
	}
	if after := reg.Snapshot().Counters["shard0.net_requests"]; after != wire {
		t.Fatalf("open breaker still touched the wire: %d -> %d requests", wire, after)
	}

	// Restart the shard elsewhere; after the cooldown the probe heals.
	srv2 := NewShardServer(host)
	addr, err := srv2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("restart Listen: %v", err)
	}
	defer srv2.Close()
	box.Set(addr)
	mu.Lock()
	now = now.Add(time.Minute)
	mu.Unlock()
	res, err := cli.Submit(ctx, abid(1, 1, 1, 1, 100))
	if err != nil || !res.Fresh {
		t.Fatalf("post-restart probe submit: res=%+v err=%v", res, err)
	}
	if got := br.State(); got != BreakerClosed {
		t.Fatalf("healed breaker state = %v, want closed", got)
	}
}

// TestServerKillRecoverRestart is the single-shard process-kill drill:
// kill the server mid-period, recover the host from its journal bytes,
// restart on a new address, and check dedup survived — a client
// retrying a pre-crash submission is acknowledged, not double-journaled.
func TestServerKillRecoverRestart(t *testing.T) {
	host, m := newTestHost(t, 0, 1)
	reg := obs.NewRegistry()
	srv, cli, box := newTestPair(t, host, ClientConfig{
		CallTimeout: 100 * time.Millisecond,
		Retry:       resilience.Backoff{Attempts: 1},
		Obs:         reg,
	}, nil)
	ctx := context.Background()

	var seqs []uint64
	for u := core.UserID(1); u <= 3; u++ {
		res, err := cli.Submit(ctx, abid(u, 1, 1, 2, 100, 200))
		if err != nil {
			t.Fatalf("user %d: %v", u, err)
		}
		seqs = append(seqs, res.Seq)
	}

	srv.Close() // kill the shard process; the journal survives
	if _, err := cli.Submit(ctx, abid(4, 1, 1, 1, 100)); !errors.Is(err, resilience.ErrShardUnavailable) {
		t.Fatalf("submit against killed server: %v", err)
	}

	recs, _, torn := resilience.ReadJournal(m.Bytes())
	if torn {
		t.Fatal("journal torn by server kill")
	}
	host2, err := resilience.RecoverShardHost(recs, m)
	if err != nil {
		t.Fatalf("RecoverShardHost: %v", err)
	}
	srv2 := NewShardServer(host2)
	addr, err := srv2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("restart Listen: %v", err)
	}
	defer srv2.Close()
	box.Set(addr)

	// A blind client retry of a pre-crash bid hits recovered dedup.
	res, err := cli.Submit(ctx, abid(2, 1, 1, 2, 100, 200))
	if err != nil {
		t.Fatalf("retry after restart: %v", err)
	}
	if res.Fresh || res.Seq != seqs[1] {
		t.Fatalf("pre-crash bid re-acked %+v, want Fresh=false Seq=%d", res, seqs[1])
	}
	if res, err = cli.Submit(ctx, abid(4, 1, 1, 1, 100)); err != nil || !res.Fresh {
		t.Fatalf("fresh bid after restart: res=%+v err=%v", res, err)
	}
	if got := reg.Snapshot().Counters["shard0.net_redials"]; got < 1 {
		t.Fatalf("redials = %d, want >= 1", got)
	}
}

// TestShardedOverTCPByteIdentical is the tentpole identity check in
// miniature: the same script against an in-process loopback tier and a
// TCP tier under benign-but-nasty network faults (latency, duplicates,
// reorders) must settle to byte-identical economics, with exact
// client-vs-shard accounting and one journal record per accepted bid on
// the TCP side.
func TestShardedOverTCPByteIdentical(t *testing.T) {
	const shards = 2
	catalog := testCatalog()
	sc := tiercheck.NewScript(41, sharedopt.Additive, catalog, 4, 4, 8)

	// Reference: loopback tier.
	_, ws := tiercheck.MemWriters(shards)
	ref, err := resilience.NewShardedService(sc.Kind, catalog, sc.Horizon, ws, resilience.ShardedConfig{})
	if err != nil {
		t.Fatalf("loopback tier: %v", err)
	}
	if _, err := tiercheck.Drive(ref, sc, tiercheck.Strict, tiercheck.Hooks{}); err != nil {
		t.Fatalf("loopback run: %v", err)
	}

	// Subject: TCP tier with injected faults.
	links := make([]resilience.ShardTransport, shards)
	logs, _ := tiercheck.MemWriters(shards)
	for i := 0; i < shards; i++ {
		h, err := resilience.NewShardHost(sc.Kind, catalog, sc.Horizon, i, shards, logs[i])
		if err != nil {
			t.Fatalf("host %d: %v", i, err)
		}
		_, cli, _ := newTestPair(t, h, ClientConfig{
			CallTimeout: 250 * time.Millisecond,
			Retry:       resilience.Backoff{Attempts: 4, Base: time.Millisecond, Cap: 5 * time.Millisecond, Jitter: 0.5, Seed: uint64(i)},
			Shard:       i,
		}, NewNetFault(NetFaultConfig{
			Dup: 0.15, Reorder: 0.1, DelayMax: 500 * time.Microsecond,
		}, 1000+uint64(i)))
		links[i] = cli
	}
	tcp, err := resilience.NewShardedServiceOver(sc.Kind, catalog, sc.Horizon, links, resilience.ShardedConfig{CallTimeout: 250 * time.Millisecond})
	if err != nil {
		t.Fatalf("tcp tier: %v", err)
	}
	tally, err := tiercheck.Drive(tcp, sc, tiercheck.Strict, tiercheck.Hooks{})
	if err != nil {
		t.Fatalf("tcp run: %v", err)
	}

	if got, want := tiercheck.Snapshot(tcp), tiercheck.Snapshot(ref); got != want {
		t.Fatalf("TCP settlement diverged from loopback:\n--- tcp ---\n%s--- loopback ---\n%s", got, want)
	}
	counters := tcp.ShardStats()
	for _, err := range []error{
		tiercheck.Accounting(counters, tally, sc.Bids()),
		tiercheck.Settled(counters),
		tiercheck.Journaled(tiercheck.Journals(logs), counters),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestNetFaultDeterminism: equal seeds draw equal schedules; distinct
// seeds diverge.
func TestNetFaultDeterminism(t *testing.T) {
	cfg := NetFaultConfig{Drop: 0.1, Dup: 0.1, Reorder: 0.1, Reset: 0.1, DelayMax: time.Millisecond}
	a, b, c := NewNetFault(cfg, 5), NewNetFault(cfg, 5), NewNetFault(cfg, 6)
	same := true
	diff := false
	for i := 0; i < 200; i++ {
		ka, da := a.draw()
		kb, db := b.draw()
		kc, dc := c.draw()
		if ka != kb || da != db {
			same = false
		}
		if ka != kc || da != dc {
			diff = true
		}
	}
	if !same {
		t.Fatal("equal seeds drew different fault schedules")
	}
	if !diff {
		t.Fatal("distinct seeds drew identical fault schedules")
	}
	if a.String() != b.String() {
		t.Fatalf("summaries diverged: %q vs %q", a, b)
	}
	if !strings.Contains(a.String(), "writes=200") {
		t.Fatalf("summary %q", a)
	}
}

// TestHandshakeRejectsMisroutedLink: a tier constructor handed a client
// pointing at the wrong shard refuses at startup.
func TestHandshakeRejectsMisroutedLink(t *testing.T) {
	catalog := testCatalog()
	links := make([]resilience.ShardTransport, 2)
	for i := 0; i < 2; i++ {
		var m resilience.MemLog
		// Both hosts claim shard 0: link 1 is misrouted.
		h, err := resilience.NewShardHost(sharedopt.Additive, catalog, 4, 0, 2, &m)
		if err != nil {
			t.Fatalf("host %d: %v", i, err)
		}
		_, cli, _ := newTestPair(t, h, ClientConfig{}, nil)
		links[i] = cli
	}
	_, err := resilience.NewShardedServiceOver(sharedopt.Additive, catalog, 4, links, resilience.ShardedConfig{})
	if err == nil {
		t.Fatal("misrouted link accepted")
	}
}
