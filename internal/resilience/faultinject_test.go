package resilience

// Journal fault injection, compiled into this package's tests only. The
// resilience_test harnesses and FuzzShardedChaos wrap each shard's
// journal target in a FaultWriter that fails, tears or kills one of its
// writes, and a CrashGroup kills every shard of one simulated process at
// once.

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"sharedopt/internal/stats"
)

// ErrInjected is the write failure a FaultErr plan injects.
var ErrInjected = errors.New("resilience: injected write failure")

// ErrCrashed is returned by every write after a FaultCrash fired: the
// simulated process is dead and only recovery from the log may proceed.
var ErrCrashed = errors.New("resilience: simulated crash")

// ErrSyncFailed is the error a FaultSync plan returns after its write's
// bytes reached the log.
var ErrSyncFailed = errors.New("resilience: injected sync failure")

// FaultKind selects what a FaultPlan does to its chosen write.
type FaultKind int

const (
	// FaultNone disturbs nothing; the plan is a no-op.
	FaultNone FaultKind = iota
	// FaultErr fails the chosen write with ErrInjected, writing no
	// bytes — a full, clean I/O error.
	FaultErr
	// FaultShort writes only Tear bytes of the chosen record and
	// reports the short count with a nil error — the buggy-writer case
	// io.Writer forbids but real stacks produce. The journal must
	// detect it (io.ErrShortWrite) and wedge; the log now ends in a
	// torn record that recovery must discard.
	FaultShort
	// FaultCrash writes only Tear bytes of the chosen record, returns
	// ErrCrashed, and fails every later write: a kill -9 mid-append.
	FaultCrash
	// FaultSync lets every byte of the chosen write reach the log and
	// still fails it with ErrSyncFailed, as after a failed fsync: the
	// group may or may not survive, so the journal must wedge and
	// acknowledge none of it. RandomPlan never draws it.
	FaultSync
)

// String names the kind for logs and test output.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultErr:
		return "write-error"
	case FaultShort:
		return "short-write"
	case FaultCrash:
		return "crash"
	case FaultSync:
		return "sync-error"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// FaultPlan schedules exactly one write fault: the Record-th journal
// write (0-based; each group is one write) suffers Kind, with Tear bytes
// reaching the log for the tearing kinds. Plans are plain
// data so a seeded schedule is reproducible by value.
type FaultPlan struct {
	Kind   FaultKind
	Record int
	Tear   int
}

// String renders the plan compactly for test logs.
func (p FaultPlan) String() string {
	if p.Kind == FaultNone {
		return "none"
	}
	return fmt.Sprintf("%v@record%d(tear=%d)", p.Kind, p.Record, p.Tear)
}

// RandomPlan draws a deterministic fault schedule from seed for a run
// expected to make about records journal writes: a kind from FaultNone
// to FaultCrash (faultless runs included), a target write, and a tear
// length.
func RandomPlan(seed uint64, records int) FaultPlan {
	r := stats.NewRNG(seed)
	if records < 1 {
		records = 1
	}
	plan := FaultPlan{
		Kind:   FaultKind(r.Intn(4)), // includes FaultNone
		Record: r.Intn(records),
		Tear:   r.Intn(24),
	}
	if plan.Kind == FaultNone {
		plan.Record, plan.Tear = 0, 0
	}
	return plan
}

// RandomShardPlans draws one independent fault schedule per shard from
// a single seed: each shard's journal suffers (at most) its own fault,
// at its own record index — the partial-failure regime the sharded tier
// must degrade under. Deterministic by (seed, shards, records).
func RandomShardPlans(seed uint64, shards, records int) []FaultPlan {
	r := stats.NewRNG(seed)
	plans := make([]FaultPlan, shards)
	for i := range plans {
		plans[i] = RandomPlan(r.Uint64(), records)
	}
	return plans
}

// CrashGroup links the FaultWriters of one simulated process: when any
// member crashes — its own plan's FaultCrash, or the group-wide KillAt
// write budget running out — every member fails all later writes with
// ErrCrashed. That is process-death semantics: a kill tears at most one
// group on one shard's journal but stops all of them at the same
// instant, which is exactly the cross-shard interleaving crash the
// sharded recovery must reconcile.
type CrashGroup struct {
	mu      sync.Mutex
	crashed bool
	writes  int
	killAt  int
	tear    int
}

// NewCrashGroup returns a group that only crashes via member FaultCrash
// plans (no global write budget).
func NewCrashGroup() *CrashGroup { return &CrashGroup{killAt: -1} }

// KillAtWrite arms the group to die on the k-th write (0-based, counted
// across all members in arrival order), letting tear bytes of that
// write reach its log first.
func (g *CrashGroup) KillAtWrite(k, tear int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.killAt, g.tear = k, tear
}

// Crashed reports whether the group has died.
func (g *CrashGroup) Crashed() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.crashed
}

// Writes returns the total writes attempted across all members.
func (g *CrashGroup) Writes() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.writes
}

// kill marks the group dead (a member's FaultCrash fired).
func (g *CrashGroup) kill() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.crashed = true
}

// admit accounts one member write against the group. It returns
// done=true when the group is (now) dead: either the write must fail
// with ErrCrashed untouched, or — if this is the budgeted kill write —
// after tear bytes reach w.
func (g *CrashGroup) admit(w io.Writer, p []byte) (n int, err error, done bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.crashed {
		return 0, ErrCrashed, true
	}
	idx := g.writes
	g.writes++
	if g.killAt >= 0 && idx == g.killAt {
		g.crashed = true
		k := min(g.tear, len(p))
		n, _ := w.Write(p[:k])
		return n, ErrCrashed, true
	}
	return 0, nil, false
}

// FaultWriter wraps a journal target and executes a FaultPlan against
// it. It is safe for concurrent use and counts writes (one per group) so
// tests can assert exactly where the failure landed.
type FaultWriter struct {
	mu      sync.Mutex
	w       io.Writer
	plan    FaultPlan
	group   *CrashGroup
	n       int
	crashed bool
}

// NewFaultWriter returns a writer applying plan on top of w.
func NewFaultWriter(w io.Writer, plan FaultPlan) *FaultWriter {
	return &FaultWriter{w: w, plan: plan}
}

// NewFaultWriterInGroup returns a writer applying plan on top of w and
// sharing g's process fate: a crash anywhere in the group fails this
// writer too, and this writer's FaultCrash kills the group.
func NewFaultWriterInGroup(w io.Writer, plan FaultPlan, g *CrashGroup) *FaultWriter {
	return &FaultWriter{w: w, plan: plan, group: g}
}

// Write forwards p to the target unless the plan (or the group's fate)
// says this is the write to disturb.
func (f *FaultWriter) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return 0, ErrCrashed
	}
	if f.group != nil {
		if n, err, done := f.group.admit(f.w, p); done {
			return n, err
		}
	}
	idx := f.n
	f.n++
	if f.plan.Kind == FaultNone || idx != f.plan.Record {
		return f.w.Write(p)
	}
	switch f.plan.Kind {
	case FaultErr:
		return 0, ErrInjected
	case FaultShort:
		k := min(f.plan.Tear, len(p))
		n, err := f.w.Write(p[:k])
		if err != nil {
			return n, err
		}
		return n, nil // short count, nil error: the forbidden writer bug
	case FaultCrash:
		f.crashed = true
		if f.group != nil {
			f.group.kill()
		}
		k := min(f.plan.Tear, len(p))
		n, _ := f.w.Write(p[:k])
		return n, ErrCrashed
	case FaultSync:
		n, err := f.w.Write(p)
		if err != nil {
			return n, err
		}
		return n, ErrSyncFailed
	default:
		return 0, fmt.Errorf("resilience: unknown fault kind %v", f.plan.Kind)
	}
}

// Writes returns how many group writes the journal attempted so far.
func (f *FaultWriter) Writes() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// Crashed reports whether the simulated crash has fired.
func (f *FaultWriter) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}
