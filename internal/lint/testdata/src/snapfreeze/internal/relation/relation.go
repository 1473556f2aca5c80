// Package relation mirrors the production column index: built once per
// relation version inside an internally locked slot, then shared by
// every reader, so it is frozen from the moment the slot hands it out.
package relation

import "sync"

// Index is a published column index.
type Index struct {
	order   []int
	version uint64
}

// slot is the sanctioned mutable leaf: it owns a lock and swaps in a
// new index when the relation changes.
type slot struct {
	mu sync.Mutex
	ix *Index
}

// Relation owns one index slot per column.
type Relation struct {
	version uint64
	slots   []slot
}

// build sorts a fresh index: every write is to private memory, a true
// negative.
func build(version uint64, n int) *Index {
	ix := &Index{version: version}
	for i := n - 1; i >= 0; i-- {
		ix.order = append(ix.order, i)
	}
	return ix
}

// Index hands out the column's shared index, building a new one when the
// relation has changed: writing the slot is a leaf mutation, not an
// index mutation.
func (r *Relation) Index(col int) *Index {
	s := &r.slots[col]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ix == nil || s.ix.version != r.version {
		s.ix = build(r.version, 4)
	}
	return s.ix
}

// Refresh patches the shared index in place instead of building a new
// one, under every reader that holds it.
func (r *Relation) Refresh(col int) {
	ix := r.Index(col)
	ix.version = r.version // want "mutating a published Index value"
}

// Reorder rewrites the shared index's sorted order in place.
func (r *Relation) Reorder(col int) {
	r.Index(col).order[0] = 1 // want "mutating a published Index value"
}
