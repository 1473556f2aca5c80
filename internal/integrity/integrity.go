// Package integrity grounds a KER model against relational data: it
// generates catalog schemas from object type definitions and checks the
// model's knowledge specifications — domain specifications (ranges,
// sets, char lengths), domain range constraints, and constraint rules —
// against stored instances. This is the "knowledge-based data
// processing" role Section 2 assigns the with-constraint information:
// the same declarations that drive intensional answering also validate
// the extension.
//
// Structure rules ("x isa T and ... then x isa S") classify instances
// rather than constrain single tuples, so they are exercised by the
// inference layer, not checked here.
package integrity

import (
	"fmt"

	"intensional/internal/ker"
	"intensional/internal/relation"
	"intensional/internal/storage"
)

// BuildCatalog creates an empty relation for every fully defined object
// type of the model (skeletal hierarchy subtypes have no attributes and
// produce no relation). Attribute storage types resolve through the
// domain chain; an attribute whose domain is an object type stores that
// type's primary key.
func BuildCatalog(m *ker.Model) (*storage.Catalog, error) {
	cat := storage.NewCatalog()
	for _, o := range m.Types() {
		if len(o.Attrs) == 0 {
			continue
		}
		cols := make([]relation.Column, 0, len(o.Attrs))
		for _, a := range o.Attrs {
			t, err := storageType(m, o, a)
			if err != nil {
				return nil, err
			}
			cols = append(cols, relation.Column{Name: a.Name, Type: t})
		}
		schema, err := relation.NewSchema(cols...)
		if err != nil {
			return nil, fmt.Errorf("integrity: object type %s: %w", o.Name, err)
		}
		rel, err := cat.Create(o.Name, schema)
		if err != nil {
			return nil, err
		}
		// Load has-instance declarations (the KER classification
		// construct): the schema file carries its own extension.
		for _, inst := range m.Instances(o.Name) {
			row := make(relation.Tuple, schema.Len())
			for i := range row {
				row[i] = relation.Null()
			}
			for attr, v := range inst.Values {
				ci, ok := schema.Index(attr)
				if !ok {
					return nil, fmt.Errorf("integrity: instance of %s assigns unknown attribute %q", o.Name, attr)
				}
				cv, err := coerceValue(v, schema.Col(ci).Type)
				if err != nil {
					return nil, fmt.Errorf("integrity: instance of %s, attribute %s: %w", o.Name, schema.Col(ci).Name, err)
				}
				row[ci] = cv
			}
			if err := rel.Insert(row); err != nil {
				return nil, err
			}
		}
	}
	return cat, nil
}

// coerceValue adapts an instance value to a column type, parsing string
// literals into numbers where needed.
func coerceValue(v relation.Value, t relation.Type) (relation.Value, error) {
	if v.Conforms(t) {
		return v, nil
	}
	if v.Kind() == relation.KindString {
		return relation.ParseValue(v.Str(), t)
	}
	return relation.Value{}, fmt.Errorf("value %#v does not fit column type %s", v, t)
}

// storageType resolves an attribute's storage type, following object
// domains to the referenced type's key attribute.
func storageType(m *ker.Model, o *ker.ObjectType, a ker.Attribute) (relation.Type, error) {
	if d, ok := m.Domain(a.Domain); ok {
		return d.Storage, nil
	}
	ref, ok := m.Type(a.Domain)
	if !ok {
		return 0, fmt.Errorf("integrity: %s.%s: unknown domain %q", o.Name, a.Name, a.Domain)
	}
	keys := ref.KeyAttrs()
	if len(keys) == 0 {
		return 0, fmt.Errorf("integrity: %s.%s: object domain %s has no key attribute",
			o.Name, a.Name, ref.Name)
	}
	if d, ok := m.Domain(keys[0].Domain); ok {
		return d.Storage, nil
	}
	return 0, fmt.Errorf("integrity: %s.%s: object domain %s key has unresolvable domain %q",
		o.Name, a.Name, ref.Name, keys[0].Domain)
}

// Violation reports one tuple failing one declared constraint.
type Violation struct {
	Object     string
	Row        int
	Constraint string // rendering of the violated declaration
	Detail     string
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("%s row %d violates %s: %s", v.Object, v.Row, v.Constraint, v.Detail)
}

// Check validates every stored instance of the model's object types
// against the declared knowledge. Missing relations are skipped (a model
// may describe more than one database); unknown attributes in
// constraints are errors.
func Check(m *ker.Model, cat *storage.Catalog) ([]Violation, error) {
	var out []Violation
	for _, o := range m.Types() {
		if len(o.Attrs) == 0 || !cat.Has(o.Name) {
			continue
		}
		rel, err := cat.Get(o.Name)
		if err != nil {
			return nil, err
		}
		vs, err := checkObject(m, o, rel)
		if err != nil {
			return nil, err
		}
		out = append(out, vs...)
	}
	return out, nil
}

func checkObject(m *ker.Model, o *ker.ObjectType, rel *relation.Relation) ([]Violation, error) {
	var out []Violation

	// Domain specifications per attribute.
	type domCheck struct {
		col  int
		desc string
		ok   func(relation.Value) bool
	}
	var domChecks []domCheck
	for _, a := range o.Attrs {
		ci, ok := rel.Schema().Index(a.Name)
		if !ok {
			return nil, fmt.Errorf("integrity: relation %s lacks declared attribute %q", o.Name, a.Name)
		}
		// Walk the derived-domain chain, collecting every spec on the way.
		// The char length is inherited down the chain, so only the most
		// derived declaration produces a check.
		name := a.Domain
		checkedLen := false
		for depth := 0; depth < 16; depth++ {
			d, ok := m.Domain(name)
			if !ok {
				break // object domain: referential checks are out of scope here
			}
			if d.CharLen > 0 && !checkedLen {
				checkedLen = true
				limit := d.CharLen
				domChecks = append(domChecks, domCheck{
					col:  ci,
					desc: fmt.Sprintf("%s domain char[%d]", a.Name, limit),
					ok: func(v relation.Value) bool {
						return v.Kind() != relation.KindString || len(v.Str()) <= limit
					},
				})
			}
			if d.HasRange {
				rng := d.Range
				domChecks = append(domChecks, domCheck{
					col:  ci,
					desc: fmt.Sprintf("%s domain range %s", a.Name, rng),
					ok:   rng.Contains,
				})
			}
			if len(d.Set) > 0 {
				set := d.Set
				domChecks = append(domChecks, domCheck{
					col:  ci,
					desc: fmt.Sprintf("%s domain set (%d values)", a.Name, len(set)),
					ok: func(v relation.Value) bool {
						for _, s := range set {
							if s.Equal(v) {
								return true
							}
						}
						return false
					},
				})
			}
			if d.Kind != ker.DomainDerived {
				break
			}
			name = d.Base
		}
	}

	// With-constraints.
	type condCheck struct {
		col      int
		interval interface{ Contains(relation.Value) bool }
	}
	resolve := func(attr string) (int, error) {
		ci, ok := rel.Schema().Index(attr)
		if !ok {
			return 0, fmt.Errorf("integrity: constraint of %s references unknown attribute %q", o.Name, attr)
		}
		return ci, nil
	}

	type ruleCheck struct {
		desc string
		lhs  []condCheck
		rhs  condCheck
	}
	var rangeChecks []domCheck
	var ruleChecks []ruleCheck
	for _, c := range o.Constraints {
		switch c := c.(type) {
		case ker.DomainRangeConstraint:
			ci, err := resolve(c.Attr)
			if err != nil {
				return nil, err
			}
			rng := c.Range
			rangeChecks = append(rangeChecks, domCheck{
				col:  ci,
				desc: c.String(),
				ok:   rng.Contains,
			})
		case ker.ConstraintRule:
			rc := ruleCheck{desc: c.String()}
			bad := false
			for _, cond := range c.LHS {
				if cond.Var != "" {
					bad = true // role-qualified: not a single-tuple constraint
					break
				}
				ci, err := resolve(cond.Attr)
				if err != nil {
					return nil, err
				}
				rc.lhs = append(rc.lhs, condCheck{col: ci, interval: condInterval(cond)})
			}
			if bad || c.RHS.Var != "" {
				continue
			}
			ci, err := resolve(c.RHS.Attr)
			if err != nil {
				return nil, err
			}
			rc.rhs = condCheck{col: ci, interval: condInterval(c.RHS)}
			ruleChecks = append(ruleChecks, rc)
		case ker.StructureRule:
			// Classification knowledge: exercised by inference, not here.
		}
	}

	for rowNo, tup := range rel.Rows() {
		for _, dc := range append(domChecks, rangeChecks...) {
			v := tup[dc.col]
			if v.IsNull() {
				continue
			}
			if !dc.ok(v) {
				out = append(out, Violation{
					Object: o.Name, Row: rowNo, Constraint: dc.desc,
					Detail: fmt.Sprintf("value %s", v.GoString()),
				})
			}
		}
	ruleLoop:
		for _, rc := range ruleChecks {
			for _, lc := range rc.lhs {
				if tup[lc.col].IsNull() || !lc.interval.Contains(tup[lc.col]) {
					continue ruleLoop
				}
			}
			if tup[rc.rhs.col].IsNull() || !rc.rhs.interval.Contains(tup[rc.rhs.col]) {
				out = append(out, Violation{
					Object: o.Name, Row: rowNo, Constraint: rc.desc,
					Detail: fmt.Sprintf("consequence value %s", tup[rc.rhs.col].GoString()),
				})
			}
		}
	}
	return out, nil
}

// condInterval turns a KER condition into a containment test.
func condInterval(c ker.Cond) interface{ Contains(relation.Value) bool } {
	return intervalOf(c)
}

type valueInterval struct {
	lo, hi relation.Value
}

func (iv valueInterval) Contains(v relation.Value) bool {
	cl, err := v.Compare(iv.lo)
	if err != nil || cl < 0 {
		return false
	}
	ch, err := v.Compare(iv.hi)
	if err != nil || ch > 0 {
		return false
	}
	return true
}

func intervalOf(c ker.Cond) valueInterval {
	return valueInterval{lo: c.Lo, hi: c.Hi}
}
