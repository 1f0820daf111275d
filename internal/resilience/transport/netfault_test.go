package transport

// Network fault injection, compiled into this package's tests only. A
// NetFault wraps the client side of a shard connection through
// ClientConfig.Dial and disturbs the client's writes on a seeded
// schedule; the client itself carries no fault hook.

import (
	"fmt"
	"net"
	"sync"
	"time"

	"sharedopt/internal/stats"
)

// NetFaultConfig sets the per-write fault probabilities. Drop, Dup,
// Reorder, and Reset are mutually exclusive per write (their sum must
// stay ≤ 1); DelayMax adds an independent uniform latency in
// [0, DelayMax) before every write, faulted or not.
type NetFaultConfig struct {
	// Drop swallows the write: nothing reaches the wire and the calls
	// whose frames it carried wait out their deadlines.
	Drop float64
	// Dup writes the bytes twice, exercising server-side digest dedup
	// and client-side stray-reply handling.
	Dup float64
	// Reorder writes the bytes about 1 ms later on its own goroutine, so
	// a later write can overtake them on the wire.
	Reorder float64
	// Reset writes the bytes, then closes the connection before a reply
	// can arrive: the server may have journaled the operation, the
	// client cannot know.
	Reset float64
	// DelayMax bounds the latency added before each write; 0 disables it.
	DelayMax time.Duration
}

// NetFault is a seeded network-fault injector, the wire analogue of
// resilience.FaultWriter. WrapDial installs it on a client's
// connections, and every Write on a wrapped connection draws one fate.
// The client's frame queue may carry several request frames in one
// Write, so a fault hits one write — one or more whole requests — not
// one request. The same seed and write sequence always draw the same
// schedule; draws are serialized.
type NetFault struct {
	mu       sync.Mutex
	cfg      NetFaultConfig
	rng      *stats.RNG
	disarmed bool

	writes, drops, dups, reorders, resets int
}

// NewNetFault builds an armed injector drawing its schedule from seed.
func NewNetFault(cfg NetFaultConfig, seed uint64) *NetFault {
	return &NetFault{cfg: cfg, rng: stats.NewRNG(seed)}
}

// SetArmed turns injection on or off. Disarmed writes pass clean and
// consume nothing from the seeded schedule, so a harness can handshake
// its tier fault-free and arm the exact same schedule afterwards.
func (f *NetFault) SetArmed(armed bool) {
	f.mu.Lock()
	f.disarmed = !armed
	f.mu.Unlock()
}

// WrapDial returns a dialer whose connections suffer f's faults.
func (f *NetFault) WrapDial(dial func() (net.Conn, error)) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		return &faultConn{Conn: conn, f: f}, nil
	}
}

type faultKind int

const (
	faultNone faultKind = iota
	faultDrop
	faultDup
	faultReorder
	faultReset
)

// draw decides the next write's fate: at most one major fault plus an
// independent delay.
func (f *NetFault) draw() (kind faultKind, delay time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.disarmed {
		return faultNone, 0
	}
	f.writes++
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
	f.mu.Lock()
	defer f.mu.Unlock()
	return fmt.Sprintf("writes=%d drops=%d dups=%d reorders=%d resets=%d",
		f.writes, f.drops, f.dups, f.reorders, f.resets)
}

// faultConn applies its injector's draw to every Write. Reads and
// everything else pass through.
type faultConn struct {
	net.Conn
	f *NetFault
}

func (c *faultConn) Write(p []byte) (int, error) {
	kind, delay := c.f.draw()
	if delay > 0 {
		time.Sleep(delay)
	}
	switch kind {
	case faultDrop:
		return len(p), nil
	case faultDup:
		n, err := c.Conn.Write(p)
		if err == nil {
			c.Conn.Write(p) //nolint:errcheck // the second copy is best-effort
		}
		return n, err
	case faultReorder:
		late := append([]byte(nil), p...) // p is the caller's after Write returns
		go func() {
			time.Sleep(time.Millisecond)
			c.Conn.Write(late) //nolint:errcheck // a loss surfaces as deadline expiry
		}()
		return len(p), nil
	case faultReset:
		n, err := c.Conn.Write(p)
		c.Conn.Close()
		return n, err
	}
	return c.Conn.Write(p)
}

// breakConns severs every live connection of s without stopping its
// listener: a network blip. In-flight calls fail unavailable on the
// client and it redials.
func breakConns(s *ShardServer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for conn := range s.conns {
		conn.Close()
	}
}

// dialTarget is a mutable dial target for a shard client: a test that
// restarts a shard server on a fresh port moves it, and the client's
// next dial follows. It is safe for concurrent use.
type dialTarget struct {
	mu   sync.Mutex
	addr string
}

// newDialTarget returns a dial target pointing at addr.
func newDialTarget(addr string) *dialTarget { return &dialTarget{addr: addr} }

// Set moves the target to addr.
func (a *dialTarget) Set(addr string) {
	a.mu.Lock()
	a.addr = addr
	a.mu.Unlock()
}

// Dial connects to the current target.
func (a *dialTarget) Dial() (net.Conn, error) {
	a.mu.Lock()
	addr := a.addr
	a.mu.Unlock()
	return net.DialTimeout("tcp", addr, time.Second)
}
