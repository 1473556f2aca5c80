package rules

import "sort"

// PremiseRun is a maximal stretch of consecutive rules, in set order,
// whose single-clause premises are on one attribute and are disjoint
// closed ranges in ascending order — the shape §5.2.1's step 3 gives the
// rules of one scheme. Key is the attribute's case-normalised key. A rule
// whose premise has several clauses, or is not a proper range, is a run
// of its own; for a multi-clause premise Key is "".
//
// A rule base has about as many runs as schemes, so forward chaining
// skips a run whose attribute holds no fact with one map probe, and
// within a run finds the one premise that can hold a fact by binary
// search.
type PremiseRun struct {
	Key   string
	Rules []*Rule
}

// extends reports whether r, whose premise key is key, continues the run:
// same attribute, and a proper range starting above the run's last one.
func (run *PremiseRun) extends(key string, r *Rule) bool {
	if key == "" || key != run.Key {
		return false
	}
	last := run.Rules[len(run.Rules)-1]
	if !properRange(last.LHS[0]) || !properRange(r.LHS[0]) {
		return false
	}
	c, err := last.LHS[0].Hi.Compare(r.LHS[0].Lo)
	return err == nil && c < 0
}

// properRange reports whether c's bounds are comparable and in order. A
// NaN bound compares equal to every number, so it can only open a run
// (as Lo) or close one (as Hi), where it acts as an infinite bound.
func properRange(c Clause) bool {
	cmp, err := c.Lo.Compare(c.Hi)
	return err == nil && cmp <= 0
}

// Subsuming returns the index of the first rule at or after from whose
// premise subsumes cond, or len(run.Rules) if none does.
//
// When cond's bounds are in order, at most one of the run's disjoint
// premises can hold it: the last one starting at or below cond's lower
// bound, which a binary search finds. Any other cond — bounds reversed,
// NaN or of two kinds — is tested against every premise from from on;
// an interval narrowed to nothing can lie inside several premises.
func (run PremiseRun) Subsuming(from int, cond Interval) int {
	rs := run.Rules[from:]
	if !boundsOrdered(cond) {
		for i, r := range rs {
			if r.LHS[0].Interval().Subsumes(cond) {
				return from + i
			}
		}
		return len(run.Rules)
	}
	j := sort.Search(len(rs), func(i int) bool {
		ok, err := loAtMost(Closed(rs[i].LHS[0].Lo), cond.Lo)
		return err != nil || !ok
	}) - 1
	if j >= 0 && rs[j].LHS[0].Interval().Subsumes(cond) {
		return from + j
	}
	return len(run.Rules)
}

// boundsOrdered reports that cond's bound values are in order (Lo ≤ Hi,
// or either unbounded) and free of NaN, so no two disjoint ranges can
// both subsume it.
func boundsOrdered(cond Interval) bool {
	if (!cond.Lo.Unbounded && cond.Lo.Value.IsNaN()) || (!cond.Hi.Unbounded && cond.Hi.Value.IsNaN()) {
		return false
	}
	if cond.Lo.Unbounded || cond.Hi.Unbounded {
		return true
	}
	c, err := cond.Lo.Value.Compare(cond.Hi.Value)
	return err == nil && c <= 0
}
