package rules

import (
	"fmt"
	"strings"

	"intensional/internal/relation"
)

// Rule-relation names used when a rule set is stored alongside a database
// (Section 5.2.2). RuleRelName follows the paper's schema
// R' = (RuleNo, Role, Lvalue, AttributeNo, Uvalue) exactly; the attribute
// value mapping relation holds the encoded-number ↔ real-value mapping.
// AttrRelName replaces the INGRES system table that identified attributes,
// and MetaRelName is an extension preserving each rule's support count
// (the paper's representation drops it; Nc pruning needs it after reload).
const (
	RuleRelName = "RULES"
	MapRelName  = "ATTRVALMAP"
	AttrRelName = "RULEATTRS"
	MetaRelName = "RULEMETA"
)

// RuleRelationSchema is the schema of R'.
func RuleRelationSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "RuleNo", Type: relation.TInt},
		relation.Column{Name: "Role", Type: relation.TString},
		relation.Column{Name: "Lvalue", Type: relation.TFloat},
		relation.Column{Name: "Att_no", Type: relation.TInt},
		relation.Column{Name: "Uvalue", Type: relation.TFloat},
	)
}

// MapRelationSchema is the schema of the attribute value mapping relation.
func MapRelationSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "Att_no", Type: relation.TInt},
		relation.Column{Name: "Value", Type: relation.TFloat},
		relation.Column{Name: "RealValue", Type: relation.TString},
	)
}

// AttrRelationSchema is the schema of the attribute identification
// relation (standing in for the INGRES system table).
func AttrRelationSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "Att_no", Type: relation.TInt},
		relation.Column{Name: "Relation", Type: relation.TString},
		relation.Column{Name: "Attribute", Type: relation.TString},
		relation.Column{Name: "Type", Type: relation.TString},
	)
}

// MetaRelationSchema is the schema of the support-preserving extension.
func MetaRelationSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "RuleNo", Type: relation.TInt},
		relation.Column{Name: "Support", Type: relation.TInt},
	)
}

// Relations bundles the four rule relations produced by Encode.
type Relations struct {
	Rules *relation.Relation // R'(RuleNo, Role, Lvalue, Att_no, Uvalue)
	Map   *relation.Relation // (Att_no, Value, RealValue)
	Attrs *relation.Relation // (Att_no, Relation, Attribute, Type)
	Meta  *relation.Relation // (RuleNo, Support)
}

// encoder assigns attribute numbers and per-attribute value codes in
// first-use order, as in the paper's example (a1→1.00, a2→2.00, b1→1.00).
type encoder struct {
	attrNo   map[string]int64
	attrs    []AttrRef
	attrKind []relation.Kind
	valCode  []map[string]float64 // per attribute: value key → code
	vals     [][]relation.Value   // per attribute: code order
}

func newEncoder() *encoder {
	return &encoder{attrNo: make(map[string]int64)}
}

func (e *encoder) attr(a AttrRef, kind relation.Kind) (int64, error) {
	k := a.Key()
	if no, ok := e.attrNo[k]; ok {
		if e.attrKind[no] != kind {
			return 0, fmt.Errorf("rules: attribute %s used with both %s and %s values",
				a, e.attrKind[no], kind)
		}
		return no, nil
	}
	no := int64(len(e.attrs))
	e.attrNo[k] = no
	e.attrs = append(e.attrs, a)
	e.attrKind = append(e.attrKind, kind)
	e.valCode = append(e.valCode, make(map[string]float64))
	e.vals = append(e.vals, nil)
	return no, nil
}

func (e *encoder) value(attrNo int64, v relation.Value) float64 {
	m := e.valCode[attrNo]
	if code, ok := m[v.Key()]; ok {
		return code
	}
	code := float64(len(m) + 1)
	m[v.Key()] = code
	e.vals[attrNo] = append(e.vals[attrNo], v)
	return code
}

func kindName(k relation.Kind) string {
	switch k {
	case relation.KindString:
		return "string"
	case relation.KindInt:
		return "int"
	case relation.KindFloat:
		return "float"
	default:
		return "null"
	}
}

// Encode converts a rule set into the four rule relations. The encoding is
// purely relational, so the result can be saved, relocated, and reloaded
// with the database it was induced from.
func Encode(s *Set) (*Relations, error) {
	enc := newEncoder()
	rr := relation.New(RuleRelName, RuleRelationSchema())
	meta := relation.New(MetaRelName, MetaRelationSchema())

	writeClause := func(ruleNo int, role string, c Clause) error {
		if c.Lo.Kind() != c.Hi.Kind() && !(c.Lo.IsNumeric() && c.Hi.IsNumeric()) {
			return fmt.Errorf("rules: rule %d clause %s mixes value kinds", ruleNo, c)
		}
		no, err := enc.attr(c.Attr, c.Lo.Kind())
		if err != nil {
			return err
		}
		lo := enc.value(no, c.Lo)
		hi := enc.value(no, c.Hi)
		return rr.Insert(relation.Tuple{
			relation.Int(int64(ruleNo)), relation.String(role),
			relation.Float(lo), relation.Int(no), relation.Float(hi),
		})
	}

	for _, r := range s.Rules() {
		for _, c := range r.LHS {
			if err := writeClause(r.ID, "L", c); err != nil {
				return nil, err
			}
		}
		if err := writeClause(r.ID, "R", r.RHS); err != nil {
			return nil, err
		}
		if err := meta.Insert(relation.Tuple{
			relation.Int(int64(r.ID)), relation.Int(int64(r.Support)),
		}); err != nil {
			return nil, err
		}
	}

	mapRel := relation.New(MapRelName, MapRelationSchema())
	attrRel := relation.New(AttrRelName, AttrRelationSchema())
	for no, a := range enc.attrs {
		if err := attrRel.Insert(relation.Tuple{
			relation.Int(int64(no)), relation.String(a.Relation),
			relation.String(a.Attribute), relation.String(kindName(enc.attrKind[no])),
		}); err != nil {
			return nil, err
		}
		for code, v := range enc.vals[no] {
			if err := mapRel.Insert(relation.Tuple{
				relation.Int(int64(no)), relation.Float(float64(code + 1)),
				relation.String(v.String()),
			}); err != nil {
				return nil, err
			}
		}
	}
	return &Relations{Rules: rr, Map: mapRel, Attrs: attrRel, Meta: meta}, nil
}

// Decode reconstructs a rule set from its rule relations. The Meta
// relation is optional (nil restores rules with zero support).
func Decode(rel *Relations) (*Set, error) {
	if rel == nil || rel.Rules == nil || rel.Map == nil || rel.Attrs == nil {
		return nil, fmt.Errorf("rules: decode requires the rule, mapping, and attribute relations")
	}
	type attrInfo struct {
		ref  AttrRef
		kind string
	}
	attrs := map[int64]attrInfo{}
	for _, t := range rel.Attrs.Rows() {
		attrs[t[0].Int64()] = attrInfo{
			ref:  Attr(t[1].Str(), t[2].Str()),
			kind: t[3].Str(),
		}
	}
	vals := map[int64]map[float64]relation.Value{}
	for _, t := range rel.Map.Rows() {
		no, code, raw := t[0].Int64(), t[1].Float64(), t[2].Str()
		info, ok := attrs[no]
		if !ok {
			return nil, fmt.Errorf("rules: mapping references unknown attribute %d", no)
		}
		var v relation.Value
		var err error
		switch info.kind {
		case "string":
			v = relation.String(raw)
		case "int":
			v, err = relation.ParseValue(raw, relation.TInt)
		case "float":
			v, err = relation.ParseValue(raw, relation.TFloat)
		default:
			err = fmt.Errorf("unknown kind %q", info.kind)
		}
		if err != nil {
			return nil, fmt.Errorf("rules: decode %s value %q: %w", info.ref, raw, err)
		}
		if vals[no] == nil {
			vals[no] = map[float64]relation.Value{}
		}
		vals[no][code] = v
	}

	support := map[int64]int{}
	if rel.Meta != nil {
		for _, t := range rel.Meta.Rows() {
			support[t[0].Int64()] = int(t[1].Int64())
		}
	}

	// Group clause rows by rule number, preserving row order.
	type partial struct {
		lhs []Clause
		rhs *Clause
	}
	parts := map[int64]*partial{}
	var order []int64
	for _, t := range rel.Rules.Rows() {
		ruleNo, role := t[0].Int64(), strings.ToUpper(t[1].Str())
		lo, no, hi := t[2].Float64(), t[3].Int64(), t[4].Float64()
		info, ok := attrs[no]
		if !ok {
			return nil, fmt.Errorf("rules: rule %d references unknown attribute %d", ruleNo, no)
		}
		lov, ok1 := vals[no][lo]
		hiv, ok2 := vals[no][hi]
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("rules: rule %d has unmapped value codes (%g, %g) for %s",
				ruleNo, lo, hi, info.ref)
		}
		p := parts[ruleNo]
		if p == nil {
			p = &partial{}
			parts[ruleNo] = p
			order = append(order, ruleNo)
		}
		c := RangeClause(info.ref, lov, hiv)
		switch role {
		case "L":
			p.lhs = append(p.lhs, c)
		case "R":
			if p.rhs != nil {
				return nil, fmt.Errorf("rules: rule %d has multiple RHS clauses (not Horn)", ruleNo)
			}
			p.rhs = &c
		default:
			return nil, fmt.Errorf("rules: rule %d has unknown role %q", ruleNo, role)
		}
	}

	out := NewSet()
	for _, no := range order {
		p := parts[no]
		if p.rhs == nil {
			return nil, fmt.Errorf("rules: rule %d has no RHS clause", no)
		}
		out.Add(&Rule{ID: int(no), LHS: p.lhs, RHS: *p.rhs, Support: support[no]})
	}
	return out, nil
}
