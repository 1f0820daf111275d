package transport

import (
	"fmt"
	"sync"
	"time"

	"sharedopt/internal/stats"
)

// NetFaultConfig sets the per-request fault probabilities. Drop, Dup,
// Reorder, and Reset are mutually exclusive per request (their sum must
// stay ≤ 1); DelayMax adds an independent uniform latency in
// [0, DelayMax) to every request, faulted or not.
type NetFaultConfig struct {
	// Drop loses the request silently: nothing reaches the wire and the
	// caller waits out its deadline.
	Drop float64
	// Dup delivers the request twice, exercising server-side
	// digest dedup and client-side stray-reply handling.
	Dup float64
	// Reorder delays this request's send asynchronously so a later
	// request can overtake it on the wire.
	Reorder float64
	// Reset sends the request, then tears the connection down before
	// the reply can arrive — the server may have journaled the
	// operation, the client cannot know.
	Reset float64
	// DelayMax bounds the added per-request latency; 0 disables it.
	DelayMax time.Duration
}

// NetFault is a seeded network-fault injector, the wire analogue of
// resilience.FaultWriter: the client consults it once per request and
// applies the drawn fault in its send path. The same seed and request
// sequence always draw the same schedule. Draws are serialized, so a
// sequential caller gets a fully deterministic fault history.
type NetFault struct {
	mu       sync.Mutex
	cfg      NetFaultConfig
	rng      *stats.RNG
	disarmed bool

	reqs, drops, dups, reorders, resets int
}

// NewNetFault builds an armed injector drawing its schedule from seed.
func NewNetFault(cfg NetFaultConfig, seed uint64) *NetFault {
	return &NetFault{cfg: cfg, rng: stats.NewRNG(seed)}
}

// SetArmed turns injection on or off. Disarmed requests pass clean and
// consume nothing from the seeded schedule, so a harness can handshake
// its tier fault-free and arm the exact same schedule afterwards.
func (f *NetFault) SetArmed(armed bool) {
	f.mu.Lock()
	f.disarmed = !armed
	f.mu.Unlock()
}

type faultKind int

const (
	faultNone faultKind = iota
	faultDrop
	faultDup
	faultReorder
	faultReset
)

// draw decides the next request's fate: at most one major fault plus an
// independent delay. nil-safe: a nil injector faults nothing.
func (f *NetFault) draw() (kind faultKind, delay time.Duration) {
	if f == nil {
		return faultNone, 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.disarmed {
		return faultNone, 0
	}
	f.reqs++
	if f.cfg.DelayMax > 0 {
		delay = time.Duration(f.rng.Int63n(int64(f.cfg.DelayMax)))
	}
	p := f.rng.Float64()
	switch {
	case p < f.cfg.Drop:
		f.drops++
		return faultDrop, delay
	case p < f.cfg.Drop+f.cfg.Dup:
		f.dups++
		return faultDup, delay
	case p < f.cfg.Drop+f.cfg.Dup+f.cfg.Reorder:
		f.reorders++
		return faultReorder, delay
	case p < f.cfg.Drop+f.cfg.Dup+f.cfg.Reorder+f.cfg.Reset:
		f.resets++
		return faultReset, delay
	}
	return faultNone, delay
}

// String summarizes the injected schedule so far.
func (f *NetFault) String() string {
	if f == nil {
		return "netfault: off"
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return fmt.Sprintf("reqs=%d drops=%d dups=%d reorders=%d resets=%d",
		f.reqs, f.drops, f.dups, f.reorders, f.resets)
}
