package dict

import (
	"fmt"
	"strings"

	"intensional/internal/ker"
	"intensional/internal/relation"
	"intensional/internal/rules"
	"intensional/internal/storage"
)

// FromKER derives a dictionary from a parsed KER model and the catalog
// holding the model's data:
//
//   - Type hierarchies come from contains/isa declarations. The
//     classifying attribute is the object's attribute whose stored
//     values best name the declared subtypes (exact match, or subtype
//     name suffixed by the value, covering conventions like subtype
//     C0101 for Class = "0101").
//   - Object-domain attributes become links: an entity type with one
//     object-domain attribute gets a hierarchy-level link to the
//     referenced type's key; an object type whose attributes are mostly
//     object domains is a relationship and gets relationship links.
//
// The result is the same structure shipdb.Dictionary hand-declares, but
// computed from the Appendix B schema.
func FromKER(m *ker.Model, cat *storage.Catalog) (*Dictionary, error) {
	d := New(cat)

	// Hierarchies.
	for _, o := range m.Types() {
		if len(o.Subtypes) == 0 || !cat.Has(o.Name) {
			continue
		}
		h, err := deriveHierarchy(d, o)
		if err != nil {
			return nil, err
		}
		if h != nil {
			if err := d.AddHierarchy(h); err != nil {
				return nil, err
			}
		}
	}

	// Links from object-domain attributes.
	for _, o := range m.Types() {
		if len(o.Attrs) == 0 || !cat.Has(o.Name) {
			continue
		}
		var links []Link
		for _, a := range o.Attrs {
			ref, ok := m.Type(a.Domain)
			if !ok || len(ref.Attrs) == 0 || !cat.Has(ref.Name) {
				continue
			}
			keys := ref.KeyAttrs()
			if len(keys) == 0 {
				continue
			}
			links = append(links, Link{
				From: rules.Attr(o.Name, a.Name),
				To:   rules.Attr(ref.Name, keys[0].Name),
			})
		}
		if len(links) == 0 {
			continue
		}
		if len(links) >= 2 {
			// Two or more object references: a relationship type.
			if err := d.AddRelationship(&Relationship{Name: o.Name, Links: links}); err != nil {
				return nil, err
			}
			continue
		}
		if err := d.AddLevelLink(links[0]); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// deriveHierarchy finds the classifying attribute and subtype values for
// one object type's declared subtypes. It returns nil (no error) when no
// attribute's data names the subtypes — the hierarchy is then purely
// nominal and unusable for inference.
func deriveHierarchy(d *Dictionary, o *ker.ObjectType) (*Hierarchy, error) {
	rel, err := d.Catalog().Get(o.Name)
	if err != nil {
		return nil, err
	}
	type candidate struct {
		attr     string
		matched  int
		subtypes []Subtype
	}
	var best *candidate
	for _, col := range rel.Schema().Columns() {
		vals, err := rel.Column(col.Name)
		if err != nil {
			return nil, err
		}
		c := candidate{attr: col.Name}
		for _, sub := range o.Subtypes {
			if v, ok := matchSubtype(sub, vals); ok {
				c.matched++
				c.subtypes = append(c.subtypes, Subtype{Name: sub, Value: v})
			}
		}
		if c.matched == 0 {
			continue
		}
		if best == nil || c.matched > best.matched {
			cc := c
			best = &cc
		}
	}
	if best == nil || best.matched < len(o.Subtypes) {
		// Require full coverage of the declared subtypes; otherwise the
		// attribute is coincidental.
		if best == nil {
			return nil, nil
		}
		return nil, fmt.Errorf("dict: hierarchy on %s: attribute %s names only %d of %d subtypes",
			o.Name, best.attr, best.matched, len(o.Subtypes))
	}
	return &Hierarchy{Object: o.Name, ClassifyingAttr: best.attr, Subtypes: best.subtypes}, nil
}

// matchSubtype finds the stored value a subtype name stands for: an
// exact (case-insensitive) value, or failing that a value the name ends
// with (subtype C0101 ↔ value "0101"). Of several matches it picks the
// least under Less, so the answer does not depend on row order.
func matchSubtype(name string, vals []relation.Value) (relation.Value, bool) {
	var exact, suffix relation.Value
	for _, v := range vals {
		if v.Kind() != relation.KindString {
			continue // suffix matching on numbers is coincidental
		}
		s := v.Str()
		switch {
		case strings.EqualFold(s, name):
			if exact.IsNull() || v.Less(exact) {
				exact = v
			}
		// Allow at most a two-character prefix (C0101 ↔ "0101").
		case len(s) > 0 && len(name) > len(s) && len(name)-len(s) <= 2 &&
			strings.EqualFold(name[len(name)-len(s):], s):
			if suffix.IsNull() || v.Less(suffix) {
				suffix = v
			}
		}
	}
	if !exact.IsNull() {
		return exact, true
	}
	return suffix, !suffix.IsNull()
}
