package rules

import (
	"fmt"
	"sort"
	"strings"

	"intensional/internal/relation"
)

// Clause is the paper's (lvalue, attribute, uvalue) expression: the
// attribute's value lies in the closed range [Lo, Hi]. A point clause
// (Lo = Hi) renders as an equality.
type Clause struct {
	Attr AttrRef
	Lo   relation.Value
	Hi   relation.Value
}

// PointClause builds a clause asserting attr = v.
func PointClause(attr AttrRef, v relation.Value) Clause {
	return Clause{Attr: attr, Lo: v, Hi: v}
}

// RangeClause builds a clause asserting lo <= attr <= hi.
func RangeClause(attr AttrRef, lo, hi relation.Value) Clause {
	return Clause{Attr: attr, Lo: lo, Hi: hi}
}

// IsPoint reports whether the clause pins the attribute to a single value.
func (c Clause) IsPoint() bool { return c.Lo.Equal(c.Hi) }

// Interval returns the clause's value range as an interval.
func (c Clause) Interval() Interval { return Range(c.Lo, c.Hi) }

// Contains reports whether v satisfies the clause.
func (c Clause) Contains(v relation.Value) bool { return c.Interval().Contains(v) }

// String renders the clause the way the paper writes rules:
// either "attr = v" or "lo <= attr <= hi".
func (c Clause) String() string {
	if c.IsPoint() {
		return fmt.Sprintf("%s = %s", c.Attr, c.Lo)
	}
	return fmt.Sprintf("%s <= %s <= %s", c.Lo, c.Attr, c.Hi)
}

// Rule is a Horn rule: a conjunction of LHS clauses implying a single RHS
// clause. Support records how many database instances satisfied the rule
// when it was induced; the pruning threshold Nc acts on it.
type Rule struct {
	ID      int
	LHS     []Clause
	RHS     Clause
	Support int
}

// Scheme returns the rule's scheme X→Y. Rules induced by the ILS have a
// single LHS clause; for multi-clause premises the first clause's
// attribute stands for X.
func (r *Rule) Scheme() Scheme {
	s := Scheme{Y: r.RHS.Attr}
	if len(r.LHS) > 0 {
		s.X = r.LHS[0].Attr
	}
	return s
}

// String renders the rule as "if <LHS> then <RHS>".
func (r *Rule) String() string {
	parts := make([]string, len(r.LHS))
	for i, c := range r.LHS {
		parts[i] = c.String()
	}
	return fmt.Sprintf("if %s then %s", strings.Join(parts, " and "), r.RHS)
}

// PremiseSubsumes reports whether the rule's premise on the given
// attribute subsumes the condition interval — the forward-inference
// applicability test. Rules whose premise mentions other attributes as
// well are not applicable from a single-attribute condition.
func (r *Rule) PremiseSubsumes(attr AttrRef, cond Interval) bool {
	if len(r.LHS) != 1 {
		return false
	}
	c := r.LHS[0]
	return c.Attr.EqualFold(attr) && c.Interval().Subsumes(cond)
}

// ConsequenceWithin reports whether the rule's consequence lies within the
// condition interval on the given attribute — the backward-inference
// applicability test.
func (r *Rule) ConsequenceWithin(attr AttrRef, cond Interval) bool {
	return r.RHS.Attr.EqualFold(attr) && r.RHS.Interval().Within(cond)
}

// Equal reports structural equality of two rules ignoring ID and support.
func (r *Rule) Equal(o *Rule) bool {
	if len(r.LHS) != len(o.LHS) {
		return false
	}
	for i := range r.LHS {
		if !clauseEqual(r.LHS[i], o.LHS[i]) {
			return false
		}
	}
	return clauseEqual(r.RHS, o.RHS)
}

func clauseEqual(a, b Clause) bool {
	return a.Attr.EqualFold(b.Attr) && a.Lo.Equal(b.Lo) && a.Hi.Equal(b.Hi)
}

// Set is an ordered collection of rules: the knowledge base the
// inference processor searches. Add computes a rule's attribute keys
// once and files the rule by scheme, by consequence attribute and into
// premise runs, so inference looks rules up instead of scanning them.
// ByID still scans; only explanations look rules up by number.
type Set struct {
	rules         []*Rule
	byScheme      map[string][]*Rule
	byConsequence map[string][]*Rule
	runs          []PremiseRun // each run's Rules is a window on rules
	nextID        int
}

// NewSet returns an empty rule set.
func NewSet() *Set {
	return &Set{
		byScheme:      make(map[string][]*Rule),
		byConsequence: make(map[string][]*Rule),
		nextID:        1,
	}
}

// Add inserts a rule, assigning it the next rule number if it has none.
// The rule must not change once added: the set indexes its attributes.
func (s *Set) Add(r *Rule) *Rule {
	if r.ID == 0 {
		r.ID = s.nextID
	}
	if r.ID >= s.nextID {
		s.nextID = r.ID + 1
	}
	s.rules = append(s.rules, r)
	sch := r.Scheme()
	x, y := sch.X.Key(), sch.Y.Key()
	k := schemeKey(x, y)
	s.byScheme[k] = append(s.byScheme[k], r)
	premise := ""
	if len(r.LHS) == 1 {
		premise = x
	}
	if n := len(s.runs); n > 0 && s.runs[n-1].extends(premise, r) {
		s.runs[n-1].Rules = window(s.rules, len(s.runs[n-1].Rules)+1)
	} else {
		s.runs = append(s.runs, PremiseRun{Key: premise, Rules: window(s.rules, 1)})
	}
	s.byConsequence[y] = append(s.byConsequence[y], r)
	return r
}

// window returns the last n rules, capped so that an append to the
// window cannot write into rules.
func window(rules []*Rule, n int) []*Rule { return rules[len(rules)-n : len(rules) : len(rules)] }

// Len returns the number of rules.
func (s *Set) Len() int { return len(s.rules) }

// Rules returns the rules in insertion order. Callers must not mutate.
func (s *Set) Rules() []*Rule { return s.rules }

// PremiseRuns returns the rules, in insertion order, cut into premise
// runs. Callers must not mutate.
func (s *Set) PremiseRuns() []PremiseRun { return s.runs }

// ByScheme returns the rules of the given scheme.
func (s *Set) ByScheme(sch Scheme) []*Rule { return s.byScheme[sch.Key()] }

// ByID returns the rule with the given rule number.
func (s *Set) ByID(id int) (*Rule, bool) {
	for _, r := range s.rules {
		if r.ID == id {
			return r, true
		}
	}
	return nil, false
}

// WithConsequenceOn returns the rules, in insertion order, whose
// consequence is on the given attribute. Callers must not mutate.
func (s *Set) WithConsequenceOn(attr AttrRef) []*Rule { return s.byConsequence[attr.Key()] }

// Prune returns a new set keeping only rules with Support >= nc — the
// paper's Nc threshold. Rule numbers are preserved.
func (s *Set) Prune(nc int) *Set {
	out := NewSet()
	for _, r := range s.rules {
		if r.Support >= nc {
			out.Add(r)
		}
	}
	return out
}

// Schemes returns the distinct schemes present, sorted by key.
func (s *Set) Schemes() []Scheme {
	seen := map[string]Scheme{}
	for _, r := range s.rules {
		sch := r.Scheme()
		seen[sch.Key()] = sch
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Scheme, len(keys))
	for i, k := range keys {
		out[i] = seen[k]
	}
	return out
}

// String renders every rule, one per line, as "R<n>: if ... then ...".
func (s *Set) String() string {
	var b strings.Builder
	for _, r := range s.rules {
		fmt.Fprintf(&b, "R%d: %s\n", r.ID, r)
	}
	return b.String()
}
