// Package admissiontest draws seeded op scripts that exercise every
// online admission rule — malformed bids, unknown optimizations,
// retroactive starts, raising and extending revisions (some outliving
// the end slot they replace, some moving a future start earlier), lowered
// values, shrunk intervals, withdrawn
// value, bids at and after a user's end slot, and changed substitute
// sets — for differential tests between the mechanisms, core.Validator,
// and the durable tier's shard admission.
package admissiontest

import (
	"sharedopt/internal/core"
	"sharedopt/internal/econ"
	"sharedopt/internal/stats"
)

// unknownOpt is an optimization ID the script catalog does not hold.
const unknownOpt core.OptID = 9

// Catalog is the catalog every script bids against.
func Catalog() []core.Optimization {
	return []core.Optimization{{ID: 1, Cost: econ.FromDollars(4)}, {ID: 2, Cost: econ.FromDollars(3)}}
}

// Op is one script step: a slot advance, or one bid. Bid carries the
// additive bid, and the interval and values of a substitutive one.
type Op struct {
	Advance bool
	Opt     core.OptID   // additive bids
	Set     []core.OptID // substitutive bids
	Bid     core.OnlineBid
}

// SubstBid returns the op as a substitutive bid.
func (op Op) SubstBid() core.OnlineSubstBid {
	return core.OnlineSubstBid{User: op.Bid.User, Opts: op.Set, Start: op.Bid.Start, End: op.Bid.End, Values: op.Bid.Values}
}

// Admit runs op's bid through v as the given game kind would.
func Admit(v *core.Validator, op Op, substitutive bool) error {
	if substitutive {
		return v.AdmitSubstitutive(op.SubstBid())
	}
	return v.AdmitAdditive(op.Opt, op.Bid)
}

// key names the curve a bid declares or revises.
type key struct {
	user core.UserID
	opt  core.OptID
}

// Script returns n seeded ops for the additive or substitutive game. Four
// users bid over short intervals, so users depart within a few slots;
// most bids revise the user's last admitted bid, each by one mutation
// that one rule judges. The generator tracks admission with its own
// Validator only to pick what to revise; verdicts are for the caller to
// compare.
func Script(seed uint64, substitutive bool, n int) []Op {
	r := stats.NewRNG(seed)
	v := core.NewValidator(Catalog())
	last := make(map[key]Op)
	ops := make([]Op, 0, n)
	for len(ops) < n {
		if r.Intn(5) == 0 {
			v.Advance()
			ops = append(ops, Op{Advance: true})
			continue
		}
		op := drawBid(r, v.Now(), last, substitutive)
		if Admit(v, op, substitutive) == nil {
			last[keyOf(op, substitutive)] = op
		}
		ops = append(ops, op)
	}
	return ops
}

func keyOf(op Op, substitutive bool) key {
	if substitutive {
		return key{user: op.Bid.User}
	}
	return key{user: op.Bid.User, opt: op.Opt}
}

// drawBid draws one bid: a fresh one, a mutated revision of the user's
// last admitted bid, and occasionally a malformed one.
func drawBid(r *stats.RNG, now core.Slot, last map[key]Op, substitutive bool) Op {
	op := Op{Opt: core.OptID(1 + r.Intn(2)), Set: drawSet(r)}
	op.Bid.User = core.UserID(1 + r.Intn(4))
	if r.Intn(12) == 0 {
		op.Opt, op.Set = unknownOpt, append(op.Set, unknownOpt)
	}
	base, ok := last[keyOf(op, substitutive)]
	if !ok || r.Intn(4) == 0 {
		// Fresh: starting at now is retroactive once a slot has passed,
		// and malformed (slot 0) before.
		start := now + core.Slot(r.Intn(3))
		op.Bid.Start, op.Bid.End = start, start+core.Slot(r.Intn(3))
		op.Bid.Values = make([]econ.Money, int(op.Bid.End-op.Bid.Start+1))
		for k := range op.Bid.Values {
			op.Bid.Values[k] = econ.FromCents(int64(100 * r.Intn(5)))
		}
	} else {
		op = revise(r, now, base)
	}
	if r.Intn(12) == 0 {
		malform(r, &op.Bid)
	}
	return op
}

func drawSet(r *stats.RNG) []core.OptID {
	switch r.Intn(3) {
	case 0:
		return []core.OptID{1}
	case 1:
		return []core.OptID{2}
	default:
		return []core.OptID{1, 2}
	}
}

// revise mutates base into a revision: a raise-and-maybe-extend, then
// possibly one rule-breaking change.
func revise(r *stats.RNG, now core.Slot, base Op) Op {
	b := base.Bid
	start := max(b.Start, now+1)
	end := max(b.End, start) + core.Slot(r.Intn(2))
	valueAt := func(s core.Slot) econ.Money {
		if s < b.Start || s > b.End {
			return 0
		}
		return b.Values[s-b.Start]
	}
	switch r.Intn(8) {
	case 1: // lower one value
		values := raised(r, start, end, valueAt)
		for k := range values {
			if v := valueAt(start + core.Slot(k)); v > 0 {
				values[k] = v - econ.Cent
				break
			}
		}
		return Op{Opt: base.Opt, Set: base.Set, Bid: core.OnlineBid{User: b.User, Start: start, End: end, Values: values}}
	case 2: // shrink the end
		end = b.End - 1
	case 3: // withdraw declared value by starting later
		start++
	case 4: // retroactive
		start = now
	case 5: // change the substitute set
		base.Set = drawSet(r)
	case 6: // extend the end well past the old one, so the user outlives it
		end = max(b.End, start) + 2 + core.Slot(r.Intn(2))
	case 7: // move a future start earlier, still after now
		if b.Start > now+1 {
			start = now + 1 + core.Slot(r.Intn(int(b.Start-now-1)))
		}
	}
	if end < start {
		end = start
	}
	return Op{Opt: base.Opt, Set: base.Set, Bid: core.OnlineBid{User: b.User, Start: start, End: end, Values: raised(r, start, end, valueAt)}}
}

// raised returns values over [start, end] at least those of valueAt.
func raised(r *stats.RNG, start, end core.Slot, valueAt func(core.Slot) econ.Money) []econ.Money {
	values := make([]econ.Money, int(end-start+1))
	for k := range values {
		values[k] = valueAt(start+core.Slot(k)) + econ.FromCents(int64(50*r.Intn(3)))
	}
	return values
}

// malform breaks the bid's shape.
func malform(r *stats.RNG, b *core.OnlineBid) {
	switch r.Intn(4) {
	case 0:
		b.Start = 0
	case 1:
		b.End = b.Start - 1
	case 2:
		b.Values = append(b.Values, econ.Cent)
	default:
		b.Values = append([]econ.Money(nil), b.Values...)
		b.Values[0] = -econ.Cent
	}
}
