package relation

import (
	"fmt"
)

// Predicate decides whether a tuple qualifies for Select or Delete.
type Predicate func(Tuple) bool

// Select returns a new relation containing the tuples satisfying pred.
func (r *Relation) Select(pred Predicate) *Relation {
	out := New(r.name, r.schema)
	for _, t := range r.rows {
		if pred(t) {
			out.rows = append(out.rows, t)
		}
	}
	return out
}

// SortKey names a column to order by and the direction.
type SortKey struct {
	Column string
	Desc   bool
}

// SortCompare orders two values for sorting: null < any non-null value;
// otherwise Compare. Values of genuinely incomparable kinds cannot share
// a typed column, so the remaining error case is unreachable and treated
// as equal. The streaming executor's Sort operator orders rows with it.
func SortCompare(a, b Value) int {
	switch {
	case a.IsNull() && b.IsNull():
		return 0
	case a.IsNull():
		return -1
	case b.IsNull():
		return 1
	}
	c, err := a.Compare(b)
	if err != nil {
		return 0
	}
	return c
}

// Delete removes the tuples satisfying pred and returns how many were
// removed. The survivors are rebuilt into a fresh slice rather than
// compacted in place, so a row slice handed out earlier by Rows keeps
// its contents intact.
func (r *Relation) Delete(pred Predicate) int {
	kept := make([]Tuple, 0, len(r.rows))
	removed := 0
	for _, t := range r.rows {
		if pred(t) {
			removed++
			continue
		}
		kept = append(kept, t)
	}
	r.rows = kept
	if removed > 0 {
		r.version++
	}
	return removed
}

// Min returns the minimum value of the named column, ignoring nulls.
// ok is false when the column has no non-null values.
func (r *Relation) Min(column string) (v Value, ok bool, err error) {
	return r.extreme(column, -1)
}

// Max returns the maximum value of the named column, ignoring nulls.
func (r *Relation) Max(column string) (v Value, ok bool, err error) {
	return r.extreme(column, 1)
}

func (r *Relation) extreme(column string, dir int) (Value, bool, error) {
	i, found := r.schema.Index(column)
	if !found {
		return Value{}, false, fmt.Errorf("relation %s: no column %q", r.name, column)
	}
	var best Value
	have := false
	for _, t := range r.rows {
		v := t[i]
		if v.IsNull() {
			continue
		}
		if !have {
			best, have = v, true
			continue
		}
		c, err := v.Compare(best)
		if err != nil {
			return Value{}, false, fmt.Errorf("relation %s column %s: %w", r.name, column, err)
		}
		if c*dir > 0 {
			best = v
		}
	}
	return best, have, nil
}

// Cmp returns a predicate comparing the named column against v with the
// given operator: one of "=", "!=", "<>", "<", "<=", ">", ">=".
func Cmp(s *Schema, column, op string, v Value) (Predicate, error) {
	i, ok := s.Index(column)
	if !ok {
		return nil, fmt.Errorf("relation: no column %q", column)
	}
	holds, err := CompareOp(op)
	if err != nil {
		return nil, err
	}
	return func(t Tuple) bool {
		c, err := t[i].Compare(v)
		return err == nil && holds(c)
	}, nil
}
