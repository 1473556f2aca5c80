// Package rules implements the paper's knowledge representation: clauses
// of the form (lvalue, attribute, uvalue), Horn rules with a conjunctive
// left-hand side and a single right-hand-side clause, rule sets keyed by
// rule scheme X→Y, the interval algebra used for forward/backward type
// inference, and the relocatable rule-relation encoding of Section 5.2.2.
package rules

import (
	"fmt"
	"strings"
)

// AttrRef names an attribute of an object type, e.g. CLASS.Displacement.
// References compare case-insensitively, following the relational layer.
type AttrRef struct {
	Relation  string
	Attribute string
}

// Attr builds an AttrRef.
func Attr(rel, attr string) AttrRef { return AttrRef{Relation: rel, Attribute: attr} }

// ParseAttrRef parses "Relation.Attribute".
func ParseAttrRef(s string) (AttrRef, error) {
	i := strings.LastIndex(s, ".")
	if i <= 0 || i == len(s)-1 {
		return AttrRef{}, fmt.Errorf("rules: bad attribute reference %q (want Relation.Attribute)", s)
	}
	return AttrRef{Relation: s[:i], Attribute: s[i+1:]}, nil
}

// String renders the reference as "Relation.Attribute".
func (a AttrRef) String() string { return a.Relation + "." + a.Attribute }

// Key returns a case-normalised map key for the reference.
func (a AttrRef) Key() string { return strings.ToLower(a.Relation + "." + a.Attribute) }

// EqualFold reports whether two references name the same attribute,
// ignoring case.
func (a AttrRef) EqualFold(b AttrRef) bool {
	return strings.EqualFold(a.Relation, b.Relation) && strings.EqualFold(a.Attribute, b.Attribute)
}

// Scheme identifies a rule scheme X→Y: the attribute pair a rule set is
// induced for.
type Scheme struct {
	X, Y AttrRef
}

// String renders the scheme as "X --> Y".
func (s Scheme) String() string { return s.X.String() + " --> " + s.Y.String() }

// Key returns a case-normalised map key for the scheme.
func (s Scheme) Key() string { return schemeKey(s.X.Key(), s.Y.Key()) }

func schemeKey(x, y string) string { return x + "-->" + y }
