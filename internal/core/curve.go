package core

import (
	"fmt"

	"sharedopt/internal/econ"
)

// declared is a user's declared per-slot value function: values[k] is
// the value declared for slot start+k. It is all the admission rules
// (admission.go) need to judge a revision.
type declared struct {
	start, end Slot
	values     []econ.Money
}

// newDeclared builds the curve of a validated first bid.
func newDeclared(bid OnlineBid) declared {
	return declared{start: bid.Start, end: bid.End, values: append([]econ.Money(nil), bid.Values...)}
}

// valueCurve is a declared curve plus the mechanisms' residual cache:
// suffix[k] caches Σ_{i≥k} values[i] so that residual lookups — the inner
// loop of every online AdvanceSlot — are O(1) instead of O(slots). The
// suffix array is rebuilt on the cold path (Submit), never on the hot
// path.
type valueCurve struct {
	declared
	suffix []econ.Money
}

// newValueCurve builds the curve of a validated first bid.
func newValueCurve(bid OnlineBid) valueCurve {
	c := valueCurve{declared: newDeclared(bid)}
	c.rebuildSuffix()
	return c
}

func (c *valueCurve) rebuildSuffix() {
	if cap(c.suffix) < len(c.values) {
		c.suffix = make([]econ.Money, len(c.values))
	} else {
		c.suffix = c.suffix[:len(c.values)]
	}
	var sum econ.Money
	for i := len(c.values) - 1; i >= 0; i-- {
		sum += c.values[i]
		c.suffix[i] = sum
	}
}

// release drops the curve's values and residual cache once its user has
// departed and been charged: no later slot reads them. The interval
// stays, and residual reads 0 from then on.
func (c *valueCurve) release() { c.values, c.suffix = nil, nil }

// residual returns the remaining declared value Σ_{τ≥t} b(τ) in O(1).
func (c *valueCurve) residual(t Slot) econ.Money {
	if len(c.values) == 0 {
		return 0
	}
	idx := int(t - c.start)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(c.values) {
		return 0
	}
	return c.suffix[idx]
}

// total returns the sum of all declared values.
func (c *valueCurve) total() econ.Money {
	if len(c.suffix) == 0 {
		return 0
	}
	return c.suffix[0]
}

// valueAt returns the declared value at slot t (0 outside the interval).
func (c *declared) valueAt(t Slot) econ.Money {
	idx := int(t - c.start)
	if idx < 0 || idx >= len(c.values) {
		return 0
	}
	return c.values[idx]
}

// revise applies a revision bid (paper, Section 5.1): for every
// not-yet-processed slot the revised value must be at least the previously
// declared value, the interval may only extend, and previously declared
// future value may not be withdrawn. now is the last processed slot. On
// success the curve is rebased onto the union of the old and new
// intervals.
func (c *declared) revise(bid OnlineBid, now Slot) error {
	if bid.End < c.end {
		return fmt.Errorf("core: user %d: revision shrinks end from %d to %d", bid.User, c.end, bid.End)
	}
	for s := bid.Start; s <= c.end; s++ {
		old := c.valueAt(s)
		var revised econ.Money
		if s <= bid.End {
			revised = bid.Values[s-bid.Start]
		}
		if revised < old {
			return fmt.Errorf("core: user %d: revision lowers value at slot %d from %v to %v",
				bid.User, s, old, revised)
		}
	}
	// The revision must not silently drop declared future value before
	// its start.
	for k, v := range c.values {
		s := c.start + Slot(k)
		if s > now && s < bid.Start && v > 0 {
			return fmt.Errorf("core: user %d: revision starting at %d withdraws value at slot %d",
				bid.User, bid.Start, s)
		}
	}
	start, end := c.start, c.end
	if bid.Start < start {
		start = bid.Start
	}
	if bid.End > end {
		end = bid.End
	}
	values := make([]econ.Money, int(end-start+1))
	copy(values[c.start-start:], c.values)
	for k, v := range bid.Values {
		values[int(bid.Start-start)+k] = v
	}
	c.start, c.end, c.values = start, end, values
	return nil
}

// revise applies a revision to the declared curve and rebuilds the suffix
// cache.
func (c *valueCurve) revise(bid OnlineBid, now Slot) error {
	if err := c.declared.revise(bid, now); err != nil {
		return err
	}
	c.rebuildSuffix()
	return nil
}
