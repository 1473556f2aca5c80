// Package storage provides the named-relation catalog and on-disk
// persistence for databases and their associated rule relations. A
// database and its rules save and load together, so induced knowledge
// relocates with the data as Section 5.2.2 of the paper requires.
package storage

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"intensional/internal/relation"
)

// Catalog is a concurrency-safe registry of named relations — the role
// INGRES's system catalog played for the original prototype. The RWMutex
// covers the registry itself (Get/Put/Create/Drop/Has/Names/Len and
// ShallowClone may be called from any number of goroutines); it does not
// cover the contents of the relations it hands out. Relations support
// concurrent readers but require exclusive access to mutate — the
// contract the parallel induction pipeline relies on when workers share
// catalog relations as read-only sources.
type Catalog struct {
	mu   sync.RWMutex
	rels map[string]*relation.Relation // guarded by mu
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{rels: make(map[string]*relation.Relation)}
}

// key normalises relation names case-insensitively, as QUEL did.
func key(name string) string { return strings.ToLower(name) }

// Create registers an empty relation with the given schema. It fails if a
// relation of that name already exists.
func (c *Catalog) Create(name string, schema *relation.Schema) (*relation.Relation, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.rels[key(name)]; exists {
		return nil, fmt.Errorf("storage: relation %q already exists", name)
	}
	r := relation.New(name, schema)
	c.rels[key(name)] = r
	return r, nil
}

// Put registers (or replaces) a relation under its own name.
func (c *Catalog) Put(r *relation.Relation) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rels[key(r.Name())] = r
}

// Get returns the named relation.
func (c *Catalog) Get(name string) (*relation.Relation, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	r, ok := c.rels[key(name)]
	if !ok {
		return nil, fmt.Errorf("storage: no relation %q", name)
	}
	return r, nil
}

// Has reports whether the named relation exists.
func (c *Catalog) Has(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.rels[key(name)]
	return ok
}

// Drop removes the named relation.
func (c *Catalog) Drop(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.rels[key(name)]; !ok {
		return fmt.Errorf("storage: no relation %q", name)
	}
	delete(c.rels, key(name))
	return nil
}

// Names returns the sorted names of all relations (their declared names,
// not the normalised keys).
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.rels))
	for _, r := range c.rels {
		names = append(names, r.Name())
	}
	sort.Strings(names)
	return names
}

// Len returns the number of relations in the catalog.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.rels)
}

// ShallowClone returns a new catalog sharing the relation pointers. The
// copy-on-write write paths use it: a mutation deep-clones the relation
// it changes and Puts it back into the shallow clone, and a rule install
// or a save Puts fresh rule relations, so every other relation (and any
// snapshot holding the original catalog) is untouched.
func (c *Catalog) ShallowClone() *Catalog {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := NewCatalog()
	for k, r := range c.rels {
		out.rels[k] = r
	}
	return out
}
