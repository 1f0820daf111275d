package sharedopt

import (
	"errors"
	"fmt"
	"sync"

	"sharedopt/internal/core"
)

// GameKind selects the valuation model of a Service.
type GameKind int

const (
	// Additive users value each optimization independently; their
	// total value is the sum over granted optimizations.
	Additive GameKind = iota
	// Substitutive users name a set of equivalent optimizations and
	// obtain their value once granted any one of them.
	Substitutive
)

// String returns the kind's name.
func (k GameKind) String() string {
	switch k {
	case Additive:
		return "additive"
	case Substitutive:
		return "substitutive"
	default:
		return fmt.Sprintf("GameKind(%d)", int(k))
	}
}

// ErrPeriodOver is returned when a call arrives after the pricing period
// ended (all horizon slots processed or ClosePeriod called).
var ErrPeriodOver = errors.New("sharedopt: pricing period is over")

// Service is the provider-side API for one pricing period T: it accepts
// bids between slots, advances billing slots, and settles payments. It
// wraps the AddOn mechanism (one game per optimization) or the SubstOn
// mechanism, so it inherits their truthfulness and cost-recovery
// guarantees. A Service is safe for concurrent use.
type Service struct {
	mu       sync.Mutex
	kind     GameKind
	horizon  Slot
	closed   bool
	additive *core.AdditiveGame
	subst    *core.SubstOn
	invoices map[UserID]Money
}

// NewAdditiveService prices the optimizations under additive valuations
// over a period of horizon slots.
func NewAdditiveService(opts []Optimization, horizon Slot) (*Service, error) {
	if err := ValidateCatalog(opts, horizon); err != nil {
		return nil, err
	}
	return &Service{
		kind:     Additive,
		horizon:  horizon,
		additive: core.NewAdditiveGame(opts),
		invoices: make(map[UserID]Money),
	}, nil
}

// NewSubstitutiveService prices the optimizations under substitutive
// valuations over a period of horizon slots.
func NewSubstitutiveService(opts []Optimization, horizon Slot) (*Service, error) {
	if err := ValidateCatalog(opts, horizon); err != nil {
		return nil, err
	}
	return &Service{
		kind:     Substitutive,
		horizon:  horizon,
		subst:    core.NewSubstOn(opts),
		invoices: make(map[UserID]Money),
	}, nil
}

// ValidateCatalog reports whether opts and horizon can open a pricing
// period: a non-empty catalog of valid optimizations with distinct IDs,
// and a horizon of at least one slot. Both Service constructors check it.
func ValidateCatalog(opts []Optimization, horizon Slot) error {
	if len(opts) == 0 {
		return errors.New("sharedopt: no optimizations")
	}
	if horizon < 1 {
		return fmt.Errorf("sharedopt: horizon %d < 1", horizon)
	}
	seen := make(map[OptID]bool, len(opts))
	for _, o := range opts {
		if err := o.Validate(); err != nil {
			return err
		}
		if seen[o.ID] {
			return fmt.Errorf("sharedopt: duplicate optimization %d", o.ID)
		}
		seen[o.ID] = true
	}
	return nil
}

// Kind returns the service's valuation model.
func (s *Service) Kind() GameKind { return s.kind }

// Horizon returns the period length in slots.
func (s *Service) Horizon() Slot { return s.horizon }

// Now returns the last processed slot (0 before the first AdvanceSlot).
func (s *Service) Now() Slot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now()
}

func (s *Service) now() Slot {
	if s.kind == Additive {
		return s.additive.Now()
	}
	return s.subst.Now()
}

// SubmitAdditiveBid places or revises a user's bid for one optimization.
// Bids must start after the last processed slot; revisions may only raise
// values and extend the interval.
func (s *Service) SubmitAdditiveBid(opt OptID, bid OnlineBid) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrPeriodOver
	}
	if s.kind != Additive {
		return fmt.Errorf("sharedopt: additive bid on a %v service", s.kind)
	}
	return s.additive.Submit(opt, bid)
}

// SubmitSubstitutiveBid places or revises a user's substitutive bid.
func (s *Service) SubmitSubstitutiveBid(bid OnlineSubstBid) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrPeriodOver
	}
	if s.kind != Substitutive {
		return fmt.Errorf("sharedopt: substitutive bid on a %v service", s.kind)
	}
	return s.subst.Submit(bid)
}

// AdvanceSlot processes the next billing slot: it recomputes serviced
// users from residual bids, grants access, and charges users whose bid
// interval ended. The final slot of the horizon automatically settles all
// remaining users and closes the period.
func (s *Service) AdvanceSlot() (SlotReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return SlotReport{}, ErrPeriodOver
	}
	var report SlotReport
	if s.kind == Additive {
		report = s.additive.AdvanceSlot()
	} else {
		report = s.subst.AdvanceSlot()
	}
	for u, p := range report.Departures {
		s.invoices[u] += p
	}
	if report.Slot >= s.horizon {
		s.settleLocked(report.Departures)
		s.closed = true
	}
	return report, nil
}

// ClosePeriod ends the period early, settling every user who has not yet
// paid at the current cost-shares. It returns the payments charged by
// this call and is idempotent after the first close.
func (s *Service) ClosePeriod() (map[UserID]Money, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return map[UserID]Money{}, nil
	}
	settled := make(map[UserID]Money)
	s.settleLocked(settled)
	s.closed = true
	return settled, nil
}

// settleLocked runs Close on the underlying game, folding payments into
// invoices and, when sink is non-nil, into sink.
func (s *Service) settleLocked(sink map[UserID]Money) {
	var payments map[UserID]Money
	if s.kind == Additive {
		payments = s.additive.Close()
	} else {
		payments = s.subst.Close()
	}
	for u, p := range payments {
		s.invoices[u] += p
		if sink != nil {
			sink[u] += p
		}
	}
}

// Invoice returns a user's total charged payments so far and whether the
// user has been settled (charged at departure or close).
func (s *Service) Invoice(u UserID) (Money, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.invoices[u]
	return p, ok
}

// Invoices returns a copy of every settled user's total charged payments.
func (s *Service) Invoices() map[UserID]Money {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[UserID]Money, len(s.invoices))
	for u, p := range s.invoices {
		out[u] = p
	}
	return out
}

// Revenue returns the total payments charged so far.
func (s *Service) Revenue() Money {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.revenueLocked()
}

func (s *Service) revenueLocked() Money {
	var total Money
	for _, p := range s.invoices {
		total += p
	}
	return total
}

// CostIncurred returns the summed cost of implemented optimizations.
func (s *Service) CostIncurred() Money {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.costLocked()
}

func (s *Service) costLocked() Money {
	if s.kind == Additive {
		return s.additive.CostIncurred()
	}
	return s.subst.CostIncurred()
}

// Surplus returns Revenue − CostIncurred. The mechanisms guarantee it is
// never negative once the period is over. Both sides are read under one
// lock acquisition: reading them through Revenue and CostIncurred
// separately would let a concurrent AdvanceSlot implement an optimization
// between the two reads and yield a transiently negative surplus that no
// consistent state ever had.
func (s *Service) Surplus() Money {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.revenueLocked() - s.costLocked()
}

// Closed reports whether the pricing period has ended (all horizon slots
// processed, or ClosePeriod called).
func (s *Service) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Optimizations returns the service's optimization catalog with this
// period's costs, in ascending ID order.
func (s *Service) Optimizations() []Optimization {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.optimizationsLocked()
}

// ImplementedOpts returns the optimizations implemented so far this
// period, in ascending ID order.
func (s *Service) ImplementedOpts() []OptID {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []OptID
	for _, o := range s.optimizationsLocked() {
		if s.implementedLocked(o.ID) {
			out = append(out, o.ID)
		}
	}
	return out
}

func (s *Service) optimizationsLocked() []Optimization {
	if s.kind == Additive {
		return s.additive.Optimizations()
	}
	return s.subst.Optimizations()
}
