// Package query is the golden fixture for the snapfreeze pass: cached
// prepared statements whose plan trees must never be mutated after
// they are shared, next to the legal fresh-construction idioms.
package query

import (
	"fixture/snapfreeze/internal/exec"
	"fixture/snapfreeze/internal/plan"
)

// Prepared mirrors the production prepared statement: planned once,
// cached, and shared by every later execution.
type Prepared struct {
	SQL  string
	Tree *plan.Plan
	Exec exec.Tree
	Hits int
}

type cache struct {
	m map[string]*Prepared
}

// get returns the shared cached statement.
func (c *cache) get(k string) *Prepared { return c.m[k] }

// touch mutates a cached statement in place.
func (c *cache) touch(k string) {
	p := c.get(k)
	p.Hits++ // want "mutating a published Prepared value"
}

// retag rewrites a column list reachable from a published plan: the
// write lands two hops deep, but the memory is still the plan's.
func (c *cache) retag(k string) {
	s := c.get(k).Tree.Root.(*plan.Scan)
	s.Cols[0] = "renamed" // want "mutating a published Scan value"
}

// regraft swaps the root of a published statement's executable tree: the
// write lands on the exec.Tree value held inside the statement.
func (c *cache) regraft(k string) {
	c.get(k).Exec.Node = nil // want "mutating a published Tree value"
}

// reprice hands a published plan to a helper that mutates it: the
// violation surfaces at the call site, via the helper's summary.
func (c *cache) reprice(k string) {
	p := c.get(k)
	stamp(p.Tree, 0) // want "stamp mutates its argument, but this Plan value is published"
}

// evict deliberately resets a cached statement; the cache owns a lock
// in production and the suppression documents the decision.
func (c *cache) evict(k string) {
	p := c.get(k)
	p.Hits = 0 //ilint:allow snapfreeze
}

// stamp is a constructor helper: mutating its parameter is legal, and
// the obligation to pass a fresh plan moves to its callers.
func stamp(p *plan.Plan, cost int) {
	p.Cost = cost
}

// NewPrepared builds, fills, and stamps a fresh statement before
// publishing it: every write here is to private memory, a true
// negative.
func NewPrepared(sql string) *Prepared {
	t := &plan.Plan{}
	t.Cost = 1
	t.Root = &plan.Scan{Table: sql, Cols: []string{"id"}}
	stamp(t, 2)
	return &Prepared{SQL: sql, Tree: t}
}

// install publishes a freshly built statement into the cache: writing
// the map through the cache receiver is a cache mutation, not a plan
// mutation, and the statement itself is fresh.
func (c *cache) install(sql string) *Prepared {
	p := NewPrepared(sql)
	c.m[sql] = p
	return p
}
