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
// index built over it, as of one relation version.
type indexSlot struct {
	mu      sync.Mutex
	version uint64 // guarded by mu — the relation version ix describes
	ix      *Index // guarded by mu — nil until first built
}

// Index returns the relation's sorted index on column col, building it
// on first use and again after any mutation. Every reader of the
// relation — the planner, index scans, the data dictionary, induction —
// shares the one index, and concurrent first calls build it once. Null
// values are not indexed (no probe matches them). Every column can
// be indexed: its non-null values conform to its type (Conforms), so
// they are mutually comparable and Compare orders them totally. col must
// be a column of the relation.
func (r *Relation) Index(col int) *Index {
	r.ixOnce.Do(func() { r.ixs = make([]indexSlot, r.schema.Len()) })
	s := &r.ixs[col]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ix == nil || s.version != r.version {
		s.ix = r.buildIndex(col)
		s.version = r.version
	}
	return s.ix
}

func (r *Relation) buildIndex(ci int) *Index {
	ix := &Index{rel: r, col: ci, version: r.version}
	for i, row := range r.rows {
		if !row[ci].IsNull() {
			ix.order = append(ix.order, i)
		}
	}
	sort.SliceStable(ix.order, func(a, b int) bool {
		return r.rows[ix.order[a]][ci].Less(r.rows[ix.order[b]][ci])
	})
	return ix
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
// A stale index, or a probe of a kind the column's type does not order
// against, is an error: the caller asked a question the index cannot
// answer.
func (ix *Index) bounds(v Value) (lower, upper int, err error) {
	if !ix.Fresh() {
		return 0, 0, fmt.Errorf("relation %s: index is stale", ix.rel.name)
	}
	col := ix.rel.schema.Col(ix.col)
	if !col.Type.Comparable(v) {
		return 0, 0, fmt.Errorf("relation %s: cannot compare %s column %s with %s",
			ix.rel.name, col.Type, col.Name, v.Kind())
	}
	n := len(ix.order)
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
