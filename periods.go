package sharedopt

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// The paper prices each optimization with a single fixed cost Cj covering
// implementation plus maintenance "for some extended period of time T
// (e.g., a month). ... at the end of this time-period, the optimization's
// cost is re-computed and all interested users must purchase it again"
// (Section 5). PeriodManager implements that outer loop: a sequence of
// Services over the same optimization catalog, with per-period cost
// recomputation.

// CostPolicy recomputes an optimization's cost at the start of each new
// period. period is 1-based; implementedBefore reports whether the
// optimization was implemented in the previous period (a maintained index
// is usually cheaper to keep than to rebuild).
type CostPolicy func(opt Optimization, period int, implementedBefore bool) Money

// FixedCost keeps every optimization's configured cost in every period.
func FixedCost(opt Optimization, _ int, _ bool) Money { return opt.Cost }

// MaintenanceDiscount returns a policy that charges the full cost the
// first time and cost×num/den for periods following one where the
// optimization was implemented (pure maintenance, no rebuild).
func MaintenanceDiscount(num, den int64) (CostPolicy, error) {
	if num < 0 || den <= 0 || num > den {
		return nil, fmt.Errorf("sharedopt: maintenance discount %d/%d out of [0,1]", num, den)
	}
	return func(opt Optimization, _ int, implementedBefore bool) Money {
		if !implementedBefore {
			return opt.Cost
		}
		discounted := opt.Cost.MulInt(num) / Money(den)
		if discounted < 1 {
			discounted = 1 // costs must stay positive
		}
		return discounted
	}, nil
}

// PeriodManager runs successive pricing periods over a fixed optimization
// catalog. Each period is an independent truthful, cost-recovering game;
// state carried across periods is only the cost recomputation input
// (which optimizations were implemented). It is safe for concurrent use.
type PeriodManager struct {
	mu          sync.Mutex
	kind        GameKind
	catalog     []Optimization
	horizon     Slot
	policy      CostPolicy
	period      int
	current     *Service
	implemented map[OptID]bool
	revenue     Money
	cost        Money
}

// NewPeriodManager returns a manager for the catalog. Each period lasts
// horizon slots; policy recomputes costs between periods (nil means
// FixedCost). Call StartPeriod to open the first period.
func NewPeriodManager(kind GameKind, catalog []Optimization, horizon Slot, policy CostPolicy) (*PeriodManager, error) {
	if err := ValidateCatalog(catalog, horizon); err != nil {
		return nil, err
	}
	if kind != Additive && kind != Substitutive {
		return nil, fmt.Errorf("sharedopt: unknown game kind %v", kind)
	}
	if policy == nil {
		policy = FixedCost
	}
	return &PeriodManager{
		kind:        kind,
		catalog:     append([]Optimization(nil), catalog...),
		horizon:     horizon,
		policy:      policy,
		implemented: make(map[OptID]bool),
	}, nil
}

// ErrPeriodOpen is returned by StartPeriod while a period is running.
var ErrPeriodOpen = errors.New("sharedopt: current period still open")

// StartPeriod opens the next pricing period, recomputing every
// optimization's cost with the manager's policy, and returns the
// period's Service. The previous period must have ended (all slots
// advanced, or ClosePeriod called on its service).
func (pm *PeriodManager) StartPeriod() (*Service, error) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if pm.current != nil && !pm.current.closedNow() {
		return nil, ErrPeriodOpen
	}
	pm.harvestLocked()
	pm.period++
	opts := make([]Optimization, len(pm.catalog))
	for i, o := range pm.catalog {
		opts[i] = Optimization{
			ID:   o.ID,
			Cost: pm.policy(o, pm.period, pm.implemented[o.ID]),
		}
	}
	var svc *Service
	var err error
	if pm.kind == Additive {
		svc, err = NewAdditiveService(opts, pm.horizon)
	} else {
		svc, err = NewSubstitutiveService(opts, pm.horizon)
	}
	if err != nil {
		return nil, err
	}
	pm.current = svc
	return svc, nil
}

// harvestLocked folds the finished period's results into the running
// totals and the implemented map.
func (pm *PeriodManager) harvestLocked() {
	if pm.current == nil {
		return
	}
	pm.revenue += pm.current.Revenue()
	pm.cost += pm.current.CostIncurred()
	for _, o := range pm.catalog {
		if pm.current.implementedNow(o.ID) {
			pm.implemented[o.ID] = true
		} else {
			delete(pm.implemented, o.ID)
		}
	}
	pm.current = nil
}

// Period returns the 1-based index of the current (or last) period, 0
// before the first StartPeriod.
func (pm *PeriodManager) Period() int {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return pm.period
}

// Totals returns revenue and cost accumulated over *finished* periods.
func (pm *PeriodManager) Totals() (revenue, cost Money) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return pm.revenue, pm.cost
}

// closedNow reports whether the service's period has ended.
func (s *Service) closedNow() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// implementedNow reports whether the optimization was implemented in this
// service's period.
func (s *Service) implementedNow(opt OptID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.implementedLocked(opt)
}

func (s *Service) implementedLocked(opt OptID) bool {
	if s.kind == Additive {
		game, ok := s.additive.Game(opt)
		if !ok {
			return false
		}
		_, implemented := game.Implemented()
		return implemented
	}
	_, implemented := s.subst.Implemented(opt)
	return implemented
}

// Implemented returns the optimizations carried as implemented into the
// next period's cost recomputation, in ascending ID order. It reflects
// *finished* periods only, like Totals: the current period's
// implementations are harvested by the next StartPeriod.
func (pm *PeriodManager) Implemented() []OptID {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	out := make([]OptID, 0, len(pm.implemented))
	for id := range pm.implemented {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
