package dict

import (
	"encoding/json"
	"fmt"

	"intensional/internal/relation"
	"intensional/internal/rules"
)

// Decls is the serialisable form of a dictionary's schema-level
// declarations (hierarchies, relationships, level links). Together with
// the rule relations in the catalog, it lets a database, its schema
// knowledge, and its induced knowledge relocate as one unit.
type Decls struct {
	Hierarchies   []HierarchyDecl    `json:"hierarchies"`
	Relationships []RelationshipDecl `json:"relationships"`
	LevelLinks    []LinkDecl         `json:"levelLinks"`
}

// HierarchyDecl mirrors Hierarchy with JSON-friendly values.
type HierarchyDecl struct {
	Object          string        `json:"object"`
	ClassifyingAttr string        `json:"classifyingAttr"`
	Subtypes        []SubtypeDecl `json:"subtypes"`
}

// SubtypeDecl mirrors Subtype.
type SubtypeDecl struct {
	Name  string    `json:"name"`
	Value ValueDecl `json:"value"`
}

// ValueDecl is the JSON form of a relation.Value.
type ValueDecl struct {
	Kind  string `json:"kind"` // "string", "int", "float", "null"
	Value string `json:"value,omitempty"`
}

// RelationshipDecl mirrors Relationship.
type RelationshipDecl struct {
	Name  string     `json:"name"`
	Links []LinkDecl `json:"links"`
}

// LinkDecl mirrors Link.
type LinkDecl struct {
	From string `json:"from"` // "Relation.Attribute"
	To   string `json:"to"`
}

func encodeValue(v relation.Value) ValueDecl {
	switch v.Kind() {
	case relation.KindNull:
		return ValueDecl{Kind: "null"}
	case relation.KindString:
		return ValueDecl{Kind: "string", Value: v.Str()}
	case relation.KindInt:
		return ValueDecl{Kind: "int", Value: v.String()}
	default:
		return ValueDecl{Kind: "float", Value: v.String()}
	}
}

func decodeValue(d ValueDecl) (relation.Value, error) {
	switch d.Kind {
	case "null":
		return relation.Null(), nil
	case "string":
		return relation.String(d.Value), nil
	case "int":
		return relation.ParseValue(d.Value, relation.TInt)
	case "float":
		return relation.ParseValue(d.Value, relation.TFloat)
	default:
		return relation.Value{}, fmt.Errorf("dict: unknown value kind %q", d.Kind)
	}
}

// Decls exports the dictionary's declarations.
func (d *Dictionary) Decls() *Decls {
	out := &Decls{}
	for _, h := range d.Hierarchies() {
		hd := HierarchyDecl{Object: h.Object, ClassifyingAttr: h.ClassifyingAttr}
		for _, s := range h.Subtypes {
			hd.Subtypes = append(hd.Subtypes, SubtypeDecl{Name: s.Name, Value: encodeValue(s.Value)})
		}
		out.Hierarchies = append(out.Hierarchies, hd)
	}
	for _, r := range d.Relationships() {
		rd := RelationshipDecl{Name: r.Name}
		for _, l := range r.Links {
			rd.Links = append(rd.Links, LinkDecl{From: l.From.String(), To: l.To.String()})
		}
		out.Relationships = append(out.Relationships, rd)
	}
	for _, l := range d.LevelLinks() {
		out.LevelLinks = append(out.LevelLinks, LinkDecl{From: l.From.String(), To: l.To.String()})
	}
	return out
}

// Apply installs declarations into the dictionary, validating them
// against the catalog.
func (d *Dictionary) Apply(decls *Decls) error {
	for _, hd := range decls.Hierarchies {
		h := &Hierarchy{Object: hd.Object, ClassifyingAttr: hd.ClassifyingAttr}
		for _, sd := range hd.Subtypes {
			v, err := decodeValue(sd.Value)
			if err != nil {
				return fmt.Errorf("dict: subtype %s of %s.%s: %w", sd.Name, hd.Object, hd.ClassifyingAttr, err)
			}
			h.Subtypes = append(h.Subtypes, Subtype{Name: sd.Name, Value: v})
		}
		if err := d.AddHierarchy(h); err != nil {
			return err
		}
	}
	decodeLink := func(ld LinkDecl) (Link, error) {
		from, err := rules.ParseAttrRef(ld.From)
		if err != nil {
			return Link{}, err
		}
		to, err := rules.ParseAttrRef(ld.To)
		if err != nil {
			return Link{}, err
		}
		return Link{From: from, To: to}, nil
	}
	for _, rd := range decls.Relationships {
		r := &Relationship{Name: rd.Name}
		for _, ld := range rd.Links {
			l, err := decodeLink(ld)
			if err != nil {
				return err
			}
			r.Links = append(r.Links, l)
		}
		if err := d.AddRelationship(r); err != nil {
			return err
		}
	}
	for _, ld := range decls.LevelLinks {
		l, err := decodeLink(ld)
		if err != nil {
			return err
		}
		if err := d.AddLevelLink(l); err != nil {
			return err
		}
	}
	return nil
}

// MarshalDecls renders the declarations as indented JSON.
func MarshalDecls(d *Decls) ([]byte, error) {
	return json.MarshalIndent(d, "", "  ")
}

// UnmarshalDecls parses declarations JSON.
func UnmarshalDecls(data []byte) (*Decls, error) {
	var d Decls
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("dict: parse declarations: %w", err)
	}
	return &d, nil
}
