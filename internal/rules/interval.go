package rules

import (
	"fmt"

	"intensional/internal/relation"
)

// Bound is one endpoint of an interval. A bound is either unbounded (±∞),
// or a value that is included (closed) or excluded (open).
type Bound struct {
	Unbounded bool
	Open      bool
	Value     relation.Value
}

// Unbound returns an infinite bound.
func Unbound() Bound { return Bound{Unbounded: true} }

// Closed returns an inclusive bound at v.
func Closed(v relation.Value) Bound { return Bound{Value: v} }

// Opened returns an exclusive bound at v.
func Opened(v relation.Value) Bound { return Bound{Value: v, Open: true} }

// Interval is a (possibly half-open or unbounded) range of attribute
// values under the relation.Value total order. Query conditions and rule
// clauses both normalise to intervals so subsumption is one algorithm.
type Interval struct {
	Lo, Hi Bound
}

// Everything returns the unbounded interval.
func Everything() Interval { return Interval{Lo: Unbound(), Hi: Unbound()} }

// Point returns the degenerate interval [v, v].
func Point(v relation.Value) Interval { return Interval{Lo: Closed(v), Hi: Closed(v)} }

// Range returns the closed interval [lo, hi].
func Range(lo, hi relation.Value) Interval { return Interval{Lo: Closed(lo), Hi: Closed(hi)} }

// FromOp converts a comparison "attr op v" into the interval of values
// satisfying it. Supported operators: =, <, <=, >, >=.
func FromOp(op string, v relation.Value) (Interval, error) {
	switch op {
	case "=":
		return Point(v), nil
	case "<":
		return Interval{Lo: Unbound(), Hi: Opened(v)}, nil
	case "<=":
		return Interval{Lo: Unbound(), Hi: Closed(v)}, nil
	case ">":
		return Interval{Lo: Opened(v), Hi: Unbound()}, nil
	case ">=":
		return Interval{Lo: Closed(v), Hi: Unbound()}, nil
	default:
		return Interval{}, fmt.Errorf("rules: operator %q has no interval form", op)
	}
}

// IsPoint reports whether the interval contains exactly one value
// expressible as a closed [v, v].
func (iv Interval) IsPoint() bool {
	return !iv.Lo.Unbounded && !iv.Hi.Unbounded && !iv.Lo.Open && !iv.Hi.Open &&
		iv.Lo.Value.Equal(iv.Hi.Value)
}

// Contains reports whether v lies in the interval. Values incomparable
// with a bound are outside.
func (iv Interval) Contains(v relation.Value) bool { return iv.AboveLo(v) && iv.BelowHi(v) }

// AboveLo reports whether v satisfies the interval's lower bound alone.
// Over values in ascending order it is false, then true, so a binary
// search finds the first value inside the interval. Values incomparable
// with the bound do not satisfy it.
func (iv Interval) AboveLo(v relation.Value) bool {
	if iv.Lo.Unbounded {
		return true
	}
	c, err := v.Compare(iv.Lo.Value)
	return err == nil && (c > 0 || (c == 0 && !iv.Lo.Open))
}

// BelowHi reports whether v satisfies the interval's upper bound alone:
// true, then false, over values in ascending order. Values incomparable
// with the bound do not satisfy it.
func (iv Interval) BelowHi(v relation.Value) bool {
	if iv.Hi.Unbounded {
		return true
	}
	c, err := v.Compare(iv.Hi.Value)
	return err == nil && (c < 0 || (c == 0 && !iv.Hi.Open))
}

// loAtMost reports whether bound a is at or below bound b when both are
// lower bounds (a admits everything b admits at the low end).
func loAtMost(a, b Bound) (bool, error) {
	if a.Unbounded {
		return true, nil
	}
	if b.Unbounded {
		return false, nil
	}
	c, err := a.Value.Compare(b.Value)
	if err != nil {
		return false, err
	}
	if c != 0 {
		return c < 0, nil
	}
	// Equal endpoints: a admits at least as much iff a is closed or b open.
	return !a.Open || b.Open, nil
}

// hiAtLeast reports whether bound a is at or above bound b when both are
// upper bounds.
func hiAtLeast(a, b Bound) (bool, error) {
	if a.Unbounded {
		return true, nil
	}
	if b.Unbounded {
		return false, nil
	}
	c, err := a.Value.Compare(b.Value)
	if err != nil {
		return false, err
	}
	if c != 0 {
		return c > 0, nil
	}
	return !a.Open || b.Open, nil
}

// Subsumes reports whether iv ⊇ other: every value in other lies in iv.
// This is the test forward inference applies between a rule premise (iv)
// and a query condition (other). Intervals over incomparable value kinds
// do not subsume each other.
func (iv Interval) Subsumes(other Interval) bool {
	lo, err := loAtMost(iv.Lo, other.Lo)
	if err != nil || !lo {
		return false
	}
	hi, err := hiAtLeast(iv.Hi, other.Hi)
	if err != nil || !hi {
		return false
	}
	return true
}

// Within reports whether iv ⊆ other — the test backward inference applies
// between a rule consequence (iv) and a query condition (other).
func (iv Interval) Within(other Interval) bool { return other.Subsumes(iv) }

// Intersects reports whether the two intervals share at least one value.
// Unbounded or open endpoints are handled; incomparable kinds never
// intersect.
func (iv Interval) Intersects(other Interval) bool {
	disjointAbove := func(lo, hi Bound) bool {
		// lo is a lower bound of one interval, hi an upper bound of the
		// other; they are disjoint when lo > hi.
		if lo.Unbounded || hi.Unbounded {
			return false
		}
		c, err := lo.Value.Compare(hi.Value)
		if err != nil {
			return true // incomparable kinds: treat as disjoint
		}
		if c != 0 {
			return c > 0
		}
		return lo.Open || hi.Open
	}
	return !disjointAbove(iv.Lo, other.Hi) && !disjointAbove(other.Lo, iv.Hi)
}

// IsEmpty reports whether the interval provably contains no value: both
// ends bounded with the lower bound above the upper, or equal with either
// end open.
func (iv Interval) IsEmpty() bool {
	if iv.Lo.Unbounded || iv.Hi.Unbounded {
		return false
	}
	c, err := iv.Lo.Value.Compare(iv.Hi.Value)
	if err != nil {
		return false
	}
	if c > 0 {
		return true
	}
	return c == 0 && (iv.Lo.Open || iv.Hi.Open)
}

// Intersect returns the interval of values common to both intervals. The
// result may be empty (use Intersects to test first when that matters).
func (iv Interval) Intersect(other Interval) Interval {
	return iv.Clip(other)
}

// Clip intersects the interval with domain, returning the tighter bounds.
// The inference processor clips query conditions to an attribute's active
// domain (the range of values actually stored) before testing premise
// subsumption: under the database's closed world, "Displacement > 8000"
// means (8000 .. max observed], which is how the paper's Example 1 finds
// the condition subsumed by rule R9's premise [7250 .. 30000].
func (iv Interval) Clip(domain Interval) Interval {
	out := iv
	if tighterLo(domain.Lo, out.Lo) {
		out.Lo = domain.Lo
	}
	if tighterHi(domain.Hi, out.Hi) {
		out.Hi = domain.Hi
	}
	return out
}

// tighterLo reports whether lower bound a admits strictly fewer values
// than lower bound b (a does not admit everything b admits).
func tighterLo(a, b Bound) bool {
	ok, err := loAtMost(a, b)
	if err != nil {
		return false
	}
	return !ok
}

// tighterHi reports whether upper bound a admits strictly less than b.
func tighterHi(a, b Bound) bool {
	ok, err := hiAtLeast(a, b)
	if err != nil {
		return false
	}
	return !ok
}

// String renders the interval in mathematical notation.
func (iv Interval) String() string {
	lo, hi := "(-inf", "+inf)"
	if !iv.Lo.Unbounded {
		br := "["
		if iv.Lo.Open {
			br = "("
		}
		lo = br + iv.Lo.Value.String()
	}
	if !iv.Hi.Unbounded {
		br := "]"
		if iv.Hi.Open {
			br = ")"
		}
		hi = iv.Hi.Value.String() + br
	}
	return lo + ".." + hi
}
