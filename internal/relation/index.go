package relation

import (
	"fmt"
	"sort"
	"sync"
)

// Index is a sorted secondary index over one column: row positions
// ordered by the column's value, supporting binary-search lookups for
// the comparison operators. An index is a snapshot — it is valid only
// for the relation version it was built against (see Relation.Version).
// Once built it is never written again, so any number of goroutines may
// read it.
type Index struct {
	rel     *Relation
	col     int
	order   []int // row indices sorted ascending by column value, ties in row order
	version uint64
}

// indexSlot is one column's entry in a relation's index set: the last
// index built over it, or the reason the column could not be indexed,
// as of one relation version.
type indexSlot struct {
	mu      sync.Mutex
	version uint64 // guarded by mu — the relation version ix or err describes
	ix      *Index // guarded by mu — nil, with err nil, until first built
	err     error  // guarded by mu
}

// Index returns the relation's sorted index on column col, building it
// on first use and again after any mutation. Every reader of the
// relation — the planner, index scans, the data dictionary — shares the
// one index, and concurrent first calls build it once. Null values are
// not indexed (no comparison matches them).
//
// The column's non-null values must be kind-homogeneous (all mutually
// comparable: one of {string} or {int, float}) and free of NaN. A
// mixed-kind column has no total order — Value.Less falls back to an
// arbitrary cross-kind order — and a NaN compares equal to every number,
// so in either case a binary search could return a wrong range. Such a
// column is refused with an error, remembered until the relation
// changes, rather than producing incorrect rows at lookup time.
func (r *Relation) Index(col int) (*Index, error) {
	if col < 0 || col >= r.schema.Len() {
		return nil, fmt.Errorf("relation %s: column %d out of range", r.name, col)
	}
	r.ixOnce.Do(func() { r.ixs = make([]indexSlot, r.schema.Len()) })
	s := &r.ixs[col]
	s.mu.Lock()
	defer s.mu.Unlock()
	if (s.ix == nil && s.err == nil) || s.version != r.version {
		s.ix, s.err = r.buildIndex(col)
		s.version = r.version
	}
	return s.ix, s.err
}

func (r *Relation) buildIndex(ci int) (*Index, error) {
	ix := &Index{rel: r, col: ci, version: r.version}
	first := Null()
	for i, row := range r.rows {
		v := row[ci]
		if v.IsNull() {
			continue
		}
		if v.IsNaN() {
			return nil, fmt.Errorf("relation %s: cannot index column %q: it holds NaN",
				r.name, r.schema.Col(ci).Name)
		}
		if first.IsNull() {
			first = v
		} else if !v.Comparable(first) {
			return nil, fmt.Errorf("relation %s: cannot index column %q: mixed %s and %s values",
				r.name, r.schema.Col(ci).Name, first.Kind(), v.Kind())
		}
		ix.order = append(ix.order, i)
	}
	sort.SliceStable(ix.order, func(a, b int) bool {
		return r.rows[ix.order[a]][ci].Less(r.rows[ix.order[b]][ci])
	})
	return ix, nil
}

// Fresh reports whether the index still matches the relation's contents.
func (ix *Index) Fresh() bool { return ix.version == ix.rel.version }

// Len returns the number of indexed rows.
func (ix *Index) Len() int { return len(ix.order) }

// Value returns the indexed column value at sorted position p, 0 <= p <
// Len(): ascending in p, and among equal values in row order.
func (ix *Index) Value(p int) Value { return ix.rel.rows[ix.order[p]][ix.col] }

// Row returns the position in the relation of the row at sorted
// position p, 0 <= p < Len(), so an ordered walk can read the row's
// other columns.
func (ix *Index) Row(p int) int { return ix.order[p] }

// bounds binary-searches the sorted order for the probe value: lower is
// the first position with value >= v, upper the first with value > v.
// Incomparable probes are rejected up front (the index is
// kind-homogeneous, so checking one value covers all), and a stale index
// is an error.
func (ix *Index) bounds(v Value) (lower, upper int, err error) {
	if !ix.Fresh() {
		return 0, 0, fmt.Errorf("relation %s: index is stale", ix.rel.name)
	}
	n := len(ix.order)
	if n > 0 && !ix.Value(0).Comparable(v) {
		return 0, 0, fmt.Errorf("relation %s: cannot compare %s column with %s",
			ix.rel.name, ix.rel.schema.Col(ix.col).Type, v.Kind())
	}
	lower = sort.Search(n, func(p int) bool { return ix.Value(p).MustCompare(v) >= 0 })
	upper = sort.Search(n, func(p int) bool { return ix.Value(p).MustCompare(v) > 0 })
	return lower, upper, nil
}

// Count returns how many indexed rows satisfy "value op v" without
// materialising them — the cardinality estimate cost-based index
// selection ranks candidate access paths by. Same operator set and error
// conditions as Lookup.
func (ix *Index) Count(op string, v Value) (int, error) {
	lower, upper, err := ix.bounds(v)
	if err != nil {
		return 0, err
	}
	n := len(ix.order)
	switch op {
	case "=":
		return upper - lower, nil
	case "<":
		return lower, nil
	case "<=":
		return upper, nil
	case ">":
		return n - upper, nil
	case ">=":
		return n - lower, nil
	case "!=", "<>":
		return n - (upper - lower), nil
	default:
		return 0, fmt.Errorf("relation: index count: unsupported operator %q", op)
	}
}

// Lookup returns the row positions whose column value satisfies "value
// op v", in index (ascending value) order. Supported operators: =, !=,
// <, <=, >, >=. A stale index returns an error.
func (ix *Index) Lookup(op string, v Value) ([]int, error) {
	lower, upper, err := ix.bounds(v)
	if err != nil {
		return nil, err
	}
	n := len(ix.order)
	slice := func(lo, hi int) []int {
		out := make([]int, hi-lo)
		copy(out, ix.order[lo:hi])
		return out
	}
	switch op {
	case "=":
		return slice(lower, upper), nil
	case "<":
		return slice(0, lower), nil
	case "<=":
		return slice(0, upper), nil
	case ">":
		return slice(upper, n), nil
	case ">=":
		return slice(lower, n), nil
	case "!=", "<>":
		out := make([]int, 0, n-(upper-lower))
		out = append(out, ix.order[:lower]...)
		out = append(out, ix.order[upper:]...)
		return out, nil
	default:
		return nil, fmt.Errorf("relation: index lookup: unsupported operator %q", op)
	}
}
