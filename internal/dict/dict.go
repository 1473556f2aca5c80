// Package dict implements the intelligent data dictionary of the system
// architecture (Figure 6): a frame-like registry of object types, the
// type hierarchies with their classifying attributes, the relationship
// links between object types, the active domains of attributes, and the
// induced rule base. The Inductive Learning Subsystem fills it; the
// inference processor reads it.
package dict

import (
	"fmt"
	"sort"
	"strings"

	"intensional/internal/relation"
	"intensional/internal/rules"
	"intensional/internal/storage"
)

// Subtype names one subtype of a hierarchy together with the classifying
// attribute value that identifies membership (e.g. subtype SSBN of CLASS
// is identified by Type = "SSBN"; subtype C0101 of SUBMARINE by
// Class = "0101").
type Subtype struct {
	Name  string
	Value relation.Value
}

// Hierarchy declares that an object type's instances partition into
// disjoint subtypes according to the value of a classifying attribute —
// the "E contains E1, ..., En with Ψ" construct of Section 2 grounded in
// the data.
type Hierarchy struct {
	Object          string // relation name, e.g. CLASS
	ClassifyingAttr string // attribute whose value names the subtype
	Subtypes        []Subtype
}

// Attr returns the classifying attribute as an AttrRef.
func (h *Hierarchy) Attr() rules.AttrRef {
	return rules.Attr(h.Object, h.ClassifyingAttr)
}

// SubtypeFor maps a classifying value to the subtype name.
func (h *Hierarchy) SubtypeFor(v relation.Value) (string, bool) {
	for _, s := range h.Subtypes {
		if s.Value.Equal(v) {
			return s.Name, true
		}
	}
	return "", false
}

// ValueFor maps a subtype name to its classifying value.
func (h *Hierarchy) ValueFor(name string) (relation.Value, bool) {
	for _, s := range h.Subtypes {
		if strings.EqualFold(s.Name, name) {
			return s.Value, true
		}
	}
	return relation.Value{}, false
}

// Link is one equality edge of a relationship or hierarchy level:
// From-attribute joins To-attribute.
type Link struct {
	From, To rules.AttrRef
}

// String renders the link.
func (l Link) String() string { return l.From.String() + " = " + l.To.String() }

// Relationship declares a relationship object type and the links that tie
// it to the participating entity types (e.g. INSTALL links
// INSTALL.Ship = SUBMARINE.Id and INSTALL.Sonar = SONAR.Sonar).
type Relationship struct {
	Name  string
	Links []Link
}

// Participants returns the distinct entity relation names the
// relationship connects (the To sides of its links).
func (r *Relationship) Participants() []string {
	var out []string
	for _, l := range r.Links {
		if !containsFold(out, l.To.Relation) {
			out = append(out, l.To.Relation)
		}
	}
	return out
}

func containsFold(list []string, s string) bool {
	for _, x := range list {
		if strings.EqualFold(x, s) {
			return true
		}
	}
	return false
}

// Dictionary is the knowledge base: schema-level declarations plus the
// induced rule set, bound to the catalog that holds the data.
//
// Concurrency contract: a dictionary is built single-threaded (the Add*
// declaration methods, Apply, SetRules, LoadRules), then may serve any
// number of concurrent readers — the inference processor and the
// inducer only read declarations and rules. A dictionary holds no state
// that readers fill in: the ordered active domains it snaps conditions
// to are the catalog relations' own column indexes, which lock
// themselves. Everything must be frozen before the dictionary is
// shared; core.System enforces this by publishing dictionaries in
// immutable snapshots and building a fresh one for each Induce.
type Dictionary struct {
	cat         *storage.Catalog
	hierarchies map[string]*Hierarchy // lower(object) → hierarchy
	hierOrder   []string              // registration order
	rels        []*Relationship
	levels      []Link // hierarchy-level links, e.g. SUBMARINE.Class = CLASS.Class
	ruleSet     *rules.Set
}

// New creates an empty dictionary over the catalog.
func New(cat *storage.Catalog) *Dictionary {
	return &Dictionary{
		cat:         cat,
		hierarchies: make(map[string]*Hierarchy),
		ruleSet:     rules.NewSet(),
	}
}

// Catalog returns the bound catalog.
func (d *Dictionary) Catalog() *storage.Catalog { return d.cat }

// AddHierarchy registers a type hierarchy. One hierarchy per object type.
func (d *Dictionary) AddHierarchy(h *Hierarchy) error {
	key := strings.ToLower(h.Object)
	if _, dup := d.hierarchies[key]; dup {
		return fmt.Errorf("dict: object %s already has a hierarchy", h.Object)
	}
	if !d.cat.Has(h.Object) {
		return fmt.Errorf("dict: hierarchy on unknown relation %q", h.Object)
	}
	rel, err := d.cat.Get(h.Object)
	if err != nil {
		return err
	}
	if _, ok := rel.Schema().Index(h.ClassifyingAttr); !ok {
		return fmt.Errorf("dict: relation %s has no attribute %q", h.Object, h.ClassifyingAttr)
	}
	d.hierarchies[key] = h
	d.hierOrder = append(d.hierOrder, key)
	return nil
}

// Hierarchy returns the hierarchy declared on the object type, if any.
func (d *Dictionary) Hierarchy(object string) (*Hierarchy, bool) {
	h, ok := d.hierarchies[strings.ToLower(object)]
	return h, ok
}

// Hierarchies returns all hierarchies in registration order (candidate
// generation and rule numbering follow this order).
func (d *Dictionary) Hierarchies() []*Hierarchy {
	out := make([]*Hierarchy, len(d.hierOrder))
	for i, key := range d.hierOrder {
		out[i] = d.hierarchies[key]
	}
	return out
}

// AddRelationship registers a relationship declaration.
func (d *Dictionary) AddRelationship(r *Relationship) error {
	if !d.cat.Has(r.Name) {
		return fmt.Errorf("dict: relationship on unknown relation %q", r.Name)
	}
	for _, l := range r.Links {
		if err := d.checkAttr(l.From); err != nil {
			return err
		}
		if err := d.checkAttr(l.To); err != nil {
			return err
		}
	}
	d.rels = append(d.rels, r)
	return nil
}

// Relationships returns the declared relationships.
func (d *Dictionary) Relationships() []*Relationship { return d.rels }

// AddLevelLink declares that one object type's classifying attribute
// refers to another object type's key — the edge between two levels of a
// hierarchy chain (SUBMARINE.Class = CLASS.Class means CLASS is the
// type level above SUBMARINE instances).
func (d *Dictionary) AddLevelLink(l Link) error {
	if err := d.checkAttr(l.From); err != nil {
		return err
	}
	if err := d.checkAttr(l.To); err != nil {
		return err
	}
	d.levels = append(d.levels, l)
	return nil
}

// LevelLinks returns the hierarchy-level links.
func (d *Dictionary) LevelLinks() []Link { return d.levels }

// LevelAbove returns the link whose From side is an attribute of the
// given relation — the edge to the next hierarchy level.
func (d *Dictionary) LevelAbove(object string) (Link, bool) {
	for _, l := range d.levels {
		if strings.EqualFold(l.From.Relation, object) {
			return l, true
		}
	}
	return Link{}, false
}

func (d *Dictionary) checkAttr(a rules.AttrRef) error {
	rel, err := d.cat.Get(a.Relation)
	if err != nil {
		return fmt.Errorf("dict: %w", err)
	}
	if _, ok := rel.Schema().Index(a.Attribute); !ok {
		return fmt.Errorf("dict: relation %s has no attribute %q", a.Relation, a.Attribute)
	}
	return nil
}

// SetRules installs the induced rule base.
func (d *Dictionary) SetRules(s *rules.Set) { d.ruleSet = s }

// Rules returns the induced rule base.
func (d *Dictionary) Rules() *rules.Set { return d.ruleSet }

// SnapToObserved tightens a condition interval to the smallest closed
// interval covering the attribute's observed values inside it — the
// closed-world normalisation the inference processor applies to query
// conditions. ok is false when no observed value satisfies the condition
// (the extensional answer is provably empty). Each endpoint is the
// first row holding its value, so of two equal values (3 and 3.0, 0 and
// -0) the one stored earlier represents both.
//
// The observed values are read from the relation's index on the
// attribute, whose ascending order puts the values inside iv in one
// contiguous stretch.
func (d *Dictionary) SnapToObserved(a rules.AttrRef, iv rules.Interval) (snapped rules.Interval, ok bool, err error) {
	rel, err := d.cat.Get(a.Relation)
	if err != nil {
		return rules.Interval{}, false, err
	}
	ci, found := rel.Schema().Index(a.Attribute)
	if !found {
		return rules.Interval{}, false, fmt.Errorf("dict: relation %s has no attribute %q", a.Relation, a.Attribute)
	}
	ix := rel.Index(ci)
	n := ix.Len()
	lo := sort.Search(n, func(p int) bool { return iv.AboveLo(ix.Value(p)) })
	end := sort.Search(n, func(p int) bool { return !iv.BelowHi(ix.Value(p)) })
	if lo >= end {
		return rules.Interval{}, false, nil
	}
	// Move the upper endpoint to the first of its equal values.
	hi := ix.Value(end - 1)
	first := sort.Search(end, func(p int) bool { return !ix.Value(p).Less(hi) })
	return rules.Range(ix.Value(lo), ix.Value(first)), true, nil
}

// StoreRules encodes the rule base into rule relations and places them in
// the catalog, replacing prior versions, so Catalog.Save relocates the
// knowledge with the data (Section 5.2.2). It returns the stored
// relations.
func (d *Dictionary) StoreRules() ([]*relation.Relation, error) {
	enc, err := rules.Encode(d.ruleSet)
	if err != nil {
		return nil, err
	}
	rels := []*relation.Relation{enc.Rules, enc.Map, enc.Attrs, enc.Meta}
	for _, rel := range rels {
		d.cat.Put(rel)
	}
	return rels, nil
}

// LoadRules decodes the rule base from the catalog's rule relations.
func (d *Dictionary) LoadRules() error {
	get := func(name string) *relation.Relation {
		r, err := d.cat.Get(name)
		if err != nil {
			return nil
		}
		return r
	}
	enc := &rules.Relations{
		Rules: get(rules.RuleRelName),
		Map:   get(rules.MapRelName),
		Attrs: get(rules.AttrRelName),
		Meta:  get(rules.MetaRelName),
	}
	set, err := rules.Decode(enc)
	if err != nil {
		return err
	}
	d.ruleSet = set
	return nil
}

// RenderTree prints the hierarchy chain rooted at the given object as an
// indented tree with instance counts — the data-backed Figure 2 picture.
// Levels chain through level links: SUBMARINE instances group into CLASS
// subtypes, whose relation in turn may carry its own hierarchy.
func (d *Dictionary) RenderTree(object string) (string, error) {
	var b strings.Builder
	if err := d.renderLevel(&b, object, ""); err != nil {
		return "", err
	}
	return b.String(), nil
}

func (d *Dictionary) renderLevel(b *strings.Builder, object, prefix string) error {
	rel, err := d.cat.Get(object)
	if err != nil {
		return err
	}
	fmt.Fprintf(b, "%s%s (%d instances)\n", prefix, rel.Name(), rel.Len())
	if h, ok := d.Hierarchy(object); ok {
		ci, ok := rel.Schema().Index(h.ClassifyingAttr)
		if !ok {
			return fmt.Errorf("dict: relation %s lacks classifying attribute %q", object, h.ClassifyingAttr)
		}
		counts := map[string]int{}
		for _, row := range rel.Rows() {
			counts[row[ci].Key()]++
		}
		for i, sub := range h.Subtypes {
			connector := "├── "
			if i == len(h.Subtypes)-1 {
				connector = "└── "
			}
			fmt.Fprintf(b, "%s%s%s (%s = %s, %d instances)\n",
				prefix+connector, sub.Name, "", h.ClassifyingAttr, sub.Value, counts[sub.Value.Key()])
		}
	}
	// The level above (e.g. CLASS over SUBMARINE) renders after.
	if up, ok := d.LevelAbove(object); ok {
		fmt.Fprintf(b, "%slevel above via %s:\n", prefix, up)
		return d.renderLevel(b, up.To.Relation, prefix+"  ")
	}
	return nil
}

// HierarchyOfSubtype finds the hierarchy that declares a subtype of the
// given name, along with the subtype entry.
func (d *Dictionary) HierarchyOfSubtype(name string) (*Hierarchy, Subtype, bool) {
	for _, key := range d.hierOrder {
		h := d.hierarchies[key]
		for _, s := range h.Subtypes {
			if strings.EqualFold(s.Name, name) {
				return h, s, true
			}
		}
	}
	return nil, Subtype{}, false
}

// SubtypeName resolves the subtype of object identified by the
// classifying value v, walking the declared hierarchy.
func (d *Dictionary) SubtypeName(object string, v relation.Value) (string, bool) {
	h, ok := d.Hierarchy(object)
	if !ok {
		return "", false
	}
	return h.SubtypeFor(v)
}
