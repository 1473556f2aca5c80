package relation

import (
	"fmt"
	"sort"
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

// Project returns a new relation with only the named columns, in order.
// Duplicates are preserved; compose with Unique for set semantics.
func (r *Relation) Project(names ...string) (*Relation, error) {
	schema, idx, err := r.schema.Project(names...)
	if err != nil {
		return nil, fmt.Errorf("relation %s: %w", r.name, err)
	}
	out := New(r.name, schema)
	out.rows = make([]Tuple, len(r.rows))
	for j, t := range r.rows {
		row := make(Tuple, len(idx))
		for i, src := range idx {
			row[i] = t[src]
		}
		out.rows[j] = row
	}
	return out, nil
}

// Unique returns a new relation with duplicate tuples removed, keeping the
// first occurrence of each.
func (r *Relation) Unique() *Relation {
	out := New(r.name, r.schema)
	seen := make(map[string]struct{}, len(r.rows))
	for _, t := range r.rows {
		k := t.Key()
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out.rows = append(out.rows, t)
	}
	return out
}

// SortKey names a column to order by and the direction.
type SortKey struct {
	Column string
	Desc   bool
}

// Sort returns a new relation ordered by the given keys (stable). Null
// sorts before every non-null value (so nulls come first ascending, last
// descending) — a fixed rule rather than a skipped comparison, keeping
// the comparator transitive and the output deterministic.
func (r *Relation) Sort(keys ...SortKey) (*Relation, error) {
	idx := make([]int, len(keys))
	for i, k := range keys {
		j, ok := r.schema.Index(k.Column)
		if !ok {
			return nil, fmt.Errorf("relation %s: sort: no column %q", r.name, k.Column)
		}
		idx[i] = j
	}
	out := r.Clone()
	sort.SliceStable(out.rows, func(a, b int) bool {
		for i, j := range idx {
			c := SortCompare(out.rows[a][j], out.rows[b][j])
			if c == 0 {
				continue
			}
			if keys[i].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return out, nil
}

// SortCompare orders two values for sorting: null < any non-null value;
// otherwise Compare. Values of genuinely incomparable kinds cannot share
// a typed column, so the remaining error case is unreachable and treated
// as equal. Exported so the streaming executor's Sort operator orders
// rows exactly like Relation.Sort.
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
// compacted in place, so shallow copies sharing the old backing array
// (WithName, RenameColumns views) keep their contents intact.
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
	r.shared.Store(false)
	if removed > 0 {
		r.version++
	}
	return removed
}

// Union returns r ∪ s (multiset append; compose with Unique for sets).
// The schemas must be equal.
func (r *Relation) Union(s *Relation) (*Relation, error) {
	if !r.schema.Equal(s.schema) {
		return nil, fmt.Errorf("relation: union schema mismatch: %s vs %s", r.schema, s.schema)
	}
	out := New(r.name, r.schema)
	out.rows = append(append([]Tuple(nil), r.rows...), s.rows...)
	return out, nil
}

// Diff returns the tuples of r that do not occur in s (set difference).
// The schemas must be equal.
func (r *Relation) Diff(s *Relation) (*Relation, error) {
	if !r.schema.Equal(s.schema) {
		return nil, fmt.Errorf("relation: diff schema mismatch: %s vs %s", r.schema, s.schema)
	}
	drop := make(map[string]struct{}, s.Len())
	for _, t := range s.rows {
		drop[t.Key()] = struct{}{}
	}
	out := New(r.name, r.schema)
	for _, t := range r.rows {
		if _, gone := drop[t.Key()]; !gone {
			out.rows = append(out.rows, t)
		}
	}
	return out, nil
}

// JoinOn names one equality condition of an equi-join.
type JoinOn struct {
	Left, Right string // column names in the left and right relations
}

// Join computes the equi-join of r and s on the given column pairs using a
// hash join on the right input. The result schema is the left columns
// followed by the right columns; colliding names are qualified as
// "name.column" using each relation's name.
func (r *Relation) Join(s *Relation, on ...JoinOn) (*Relation, error) {
	if len(on) == 0 {
		return nil, fmt.Errorf("relation: join of %s and %s requires at least one condition", r.name, s.name)
	}
	li := make([]int, len(on))
	ri := make([]int, len(on))
	for k, o := range on {
		var ok bool
		if li[k], ok = r.schema.Index(o.Left); !ok {
			return nil, fmt.Errorf("relation %s: join: no column %q", r.name, o.Left)
		}
		if ri[k], ok = s.schema.Index(o.Right); !ok {
			return nil, fmt.Errorf("relation %s: join: no column %q", s.name, o.Right)
		}
	}
	schema, err := joinSchema(r, s)
	if err != nil {
		return nil, err
	}
	// Build hash table on the right input.
	build := make(map[string][]Tuple, s.Len())
	for _, t := range s.rows {
		build[joinKey(t, ri)] = append(build[joinKey(t, ri)], t)
	}
	out := New(r.name+"⋈"+s.name, schema)
	for _, lt := range r.rows {
		for _, rt := range build[joinKey(lt, li)] {
			row := make(Tuple, 0, len(lt)+len(rt))
			row = append(append(row, lt...), rt...)
			out.rows = append(out.rows, row)
		}
	}
	return out, nil
}

func joinKey(t Tuple, idx []int) string {
	k := ""
	for _, i := range idx {
		k += t[i].Key() + "\x1f"
	}
	return k
}

// joinSchema concatenates the two schemas, qualifying colliding column
// names with the owning relation's name.
func joinSchema(r, s *Relation) (*Schema, error) {
	collides := func(name string, sc *Schema) bool {
		_, ok := sc.Index(name)
		return ok
	}
	cols := make([]Column, 0, r.schema.Len()+s.schema.Len())
	for _, c := range r.schema.Columns() {
		name := c.Name
		if collides(name, s.schema) {
			name = r.name + "." + name
		}
		cols = append(cols, Column{Name: name, Type: c.Type})
	}
	for _, c := range s.schema.Columns() {
		name := c.Name
		if collides(name, r.schema) {
			name = s.name + "." + name
		}
		cols = append(cols, Column{Name: name, Type: c.Type})
	}
	return NewSchema(cols...)
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

// CountDistinct returns the number of distinct values in the named column.
func (r *Relation) CountDistinct(column string) (int, error) {
	vals, err := r.Column(column)
	if err != nil {
		return 0, err
	}
	seen := make(map[string]struct{}, len(vals))
	for _, v := range vals {
		seen[v.Key()] = struct{}{}
	}
	return len(seen), nil
}

// Eq returns a predicate matching tuples whose named column equals v.
func Eq(s *Schema, column string, v Value) (Predicate, error) {
	i, ok := s.Index(column)
	if !ok {
		return nil, fmt.Errorf("relation: no column %q", column)
	}
	return func(t Tuple) bool { return t[i].Equal(v) }, nil
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

// And combines predicates conjunctively.
func And(preds ...Predicate) Predicate {
	return func(t Tuple) bool {
		for _, p := range preds {
			if !p(t) {
				return false
			}
		}
		return true
	}
}

// Or combines predicates disjunctively.
func Or(preds ...Predicate) Predicate {
	return func(t Tuple) bool {
		for _, p := range preds {
			if p(t) {
				return true
			}
		}
		return false
	}
}

// Not negates a predicate.
func Not(p Predicate) Predicate {
	return func(t Tuple) bool { return !p(t) }
}
