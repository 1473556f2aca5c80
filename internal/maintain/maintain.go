// Package maintain tracks the validity of induced rules as the database
// mutates — the incremental counterpart to re-running the Inductive
// Learning Subsystem from scratch. Every mutation is checked against the
// rules it can affect:
//
//   - an INSERT that produces a counterexample (premise satisfied,
//     consequence violated) marks the rule STALE and records the tuple;
//     when the new tuple only partially instantiates an inter-object
//     rule's clauses, the rule is marked stale conservatively, because
//     the joined instance it creates may contradict the consequence.
//   - a DELETE of a tuple a rule covered marks the rule REFINABLE: a
//     deletion can never contradict a rule, but the rule's intervals may
//     now be looser than the data warrants and its support has dropped.
//
// Stale rules must not be served as valid: State.Serving filters them
// out of the snapshot's inference rule set while the full set (with
// status) remains visible for operators. Re-induction of the affected
// schemes (core.System.Maintain) clears the state.
//
// A State is immutable — ApplyMutation returns a new value — so it can
// ride inside the core layer's lock-free snapshots unchanged.
package maintain

import (
	"fmt"
	"sort"
	"strings"

	"intensional/internal/dict"
	"intensional/internal/query"
	"intensional/internal/relation"
	"intensional/internal/rules"
)

// Status is a rule's maintenance state.
type Status int

const (
	// Valid rules are served by inference.
	Valid Status = iota
	// Stale rules have a (possible) counterexample and are withheld
	// from inference until re-induction.
	Stale
	// Refinable rules are still valid — deletions cannot contradict —
	// but re-induction may tighten their intervals or drop them below
	// the support threshold.
	Refinable
)

// String renders the status as its lowercase name.
func (s Status) String() string {
	switch s {
	case Stale:
		return "stale"
	case Refinable:
		return "refinable"
	default:
		return "valid"
	}
}

// Info is one rule's maintenance record.
type Info struct {
	Status Status
	// Counterexamples counts the mutated tuples that (may) contradict
	// the rule. For conservative inter-object marks this is an upper
	// bound: the tuple witnesses a possible contradiction in the join.
	Counterexamples int
	// Definite reports whether at least one counterexample is proven —
	// every clause of the rule was evaluable on the mutated tuple.
	Definite bool
	// Example renders the first counterexample tuple, for operators.
	Example string
}

// State is an immutable rule-ID → Info map; rules absent from it are
// valid. The zero-value pointer from NewState is the all-valid state.
type State struct {
	info map[int]Info
	// withheld lists the schemes a restored state must still re-induce
	// (see Restore). Their stale rules were never persisted,
	// so the state knows them by scheme, not by rule ID.
	withheld []string
}

// NewState returns the all-valid state.
func NewState() *State { return &State{} }

// Info returns the rule's maintenance record (zero value: valid).
func (s *State) Info(id int) Info {
	if s == nil || s.info == nil {
		return Info{}
	}
	return s.info[id]
}

// IsStale reports whether the rule must be withheld from inference.
func (s *State) IsStale(id int) bool { return s.Info(id).Status == Stale }

// Counts returns how many tracked rules are stale and refinable.
func (s *State) Counts() (stale, refinable int) {
	if s == nil {
		return 0, 0
	}
	for _, inf := range s.info {
		switch inf.Status {
		case Stale:
			stale++
		case Refinable:
			refinable++
		}
	}
	return stale, refinable
}

// ApplyMutation checks one executed mutation against the rule set and
// returns the successor state. The dictionary supplies the relationship
// topology that decides which inter-object rules the mutated table can
// affect.
func (s *State) ApplyMutation(d *dict.Dictionary, rs *rules.Set, m *query.Mutation) *State {
	if rs == nil || rs.Len() == 0 || m == nil || m.Count() == 0 {
		return s
	}
	cls := closuresContaining(d, m.Table)
	out := s.clone()
	for _, r := range rs.Rules() {
		if !affected(r, m.Table, cls) {
			continue
		}
		inf := out.info[r.ID]
		for _, t := range m.Inserted {
			verdict, definite := checkInsert(r, m, t)
			if !verdict {
				continue
			}
			inf.Status = Stale
			inf.Counterexamples++
			if definite {
				inf.Definite = true
			}
			if inf.Example == "" {
				inf.Example = fmt.Sprintf("%s%s", m.Table, t)
			}
		}
		if inf.Status != Stale {
			for _, t := range m.Deleted {
				if coversDelete(r, m, t) {
					inf.Status = Refinable
					break
				}
			}
		}
		if inf.Status != Valid {
			out.info[r.ID] = inf
		}
	}
	if len(out.info) == 0 {
		return s // nothing marked: the clone adds no record
	}
	return out
}

// clone copies the state for modification.
func (s *State) clone() *State {
	out := &State{info: make(map[int]Info)}
	if s != nil {
		for id, inf := range s.info {
			out.info[id] = inf
		}
		out.withheld = s.withheld
	}
	return out
}

// Serving returns the rules inference may use: the full set minus stale
// rules, IDs preserved. Refinable rules are included — they still hold
// on the data.
func (s *State) Serving(full *rules.Set) *rules.Set {
	if full == nil {
		return nil
	}
	stale, _ := s.Counts()
	if stale == 0 {
		return full
	}
	out := rules.NewSet()
	for _, r := range full.Rules() {
		if !s.IsStale(r.ID) {
			out.Add(r)
		}
	}
	return out
}

// SchemeKeys returns the scheme keys that have stale or refinable rules,
// and the withheld schemes a restored state carries — the scope of the
// next re-induction — sorted for determinism.
func (s *State) SchemeKeys(full *rules.Set) []string {
	if s == nil || (len(s.info) == 0 && len(s.withheld) == 0) {
		return nil
	}
	seen := map[string]bool{}
	for _, k := range s.withheld {
		seen[k] = true
	}
	if full != nil {
		for _, r := range full.Rules() {
			if s.Info(r.ID).Status != Valid {
				seen[r.Scheme().Key()] = true
			}
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WithheldRelName names the one-column relation that carries a state's
// SchemeKeys beside the rule relations when a database is saved or
// archived: the stale rules themselves are not persisted, so without it
// a restarted system would serve the survivors of a stale scheme and
// never re-induce it.
const WithheldRelName = "RULEWITHHELD"

// WithheldRelation encodes SchemeKeys(full) as a WithheldRelName
// relation, or returns nil when no scheme awaits re-induction.
func (s *State) WithheldRelation(full *rules.Set) *relation.Relation {
	keys := s.SchemeKeys(full)
	if len(keys) == 0 {
		return nil
	}
	r := relation.New(WithheldRelName, relation.MustSchema(relation.Column{Name: "Scheme", Type: relation.TString}))
	for _, k := range keys {
		r.MustInsert(relation.String(k))
	}
	return r
}

// Restore decodes a relation written by WithheldRelation into the state
// of a just-loaded rule base: every rule it holds is valid, and the
// encoded schemes await re-induction.
func Restore(r *relation.Relation) (*State, error) {
	if r.Schema().Len() != 1 || r.Schema().Col(0).Type != relation.TString {
		return nil, fmt.Errorf("maintain: %s must have one string column", r.Name())
	}
	keys := make([]string, 0, r.Len())
	for _, t := range r.Rows() {
		if t[0].IsNull() {
			return nil, fmt.Errorf("maintain: %s holds a null scheme", r.Name())
		}
		keys = append(keys, t[0].Str())
	}
	return &State{withheld: keys}, nil
}

// affected reports whether a mutation of table can change the rule's
// truth: the rule mentions the table directly, or the rule spans
// several relations and some relationship join closure contains both
// the table and every relation the rule mentions (a new tuple anywhere
// in the join path can create new joined instances). A single-relation
// rule depends on that relation's tuples alone.
func affected(r *rules.Rule, table string, cls []map[string]bool) bool {
	rels := ruleRelations(r)
	for _, rel := range rels {
		if strings.EqualFold(rel, table) {
			return true
		}
	}
	if len(rels) < 2 {
		return false
	}
	for _, c := range cls {
		all := true
		for _, rel := range rels {
			if !c[strings.ToLower(rel)] {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// ruleRelations returns the distinct relation names the rule's clauses
// mention, in clause order.
func ruleRelations(r *rules.Rule) []string {
	var out []string
	add := func(rel string) {
		for _, x := range out {
			if strings.EqualFold(x, rel) {
				return
			}
		}
		out = append(out, rel)
	}
	for _, c := range r.LHS {
		add(c.Attr.Relation)
	}
	add(r.RHS.Attr.Relation)
	return out
}

// closuresContaining returns the join closure (relationship relation,
// participants, and hierarchy levels above them) of every relationship
// whose closure contains the table — mirroring the joins induction
// materialises (induct.buildJoin).
func closuresContaining(d *dict.Dictionary, table string) []map[string]bool {
	if d == nil {
		return nil
	}
	var out []map[string]bool
	for _, rel := range d.Relationships() {
		c := map[string]bool{strings.ToLower(rel.Name): true}
		for _, l := range rel.Links {
			cur := l.To.Relation
			for depth := 0; depth < 8; depth++ { // bounded against cycles
				if c[strings.ToLower(cur)] {
					break
				}
				c[strings.ToLower(cur)] = true
				up, ok := d.LevelAbove(cur)
				if !ok {
					break
				}
				cur = up.To.Relation
			}
		}
		if c[strings.ToLower(table)] {
			out = append(out, c)
		}
	}
	return out
}

// checkInsert decides whether inserting tuple t into m.Table can make
// the rule false. It returns (counterexample?, definite?):
//
//   - a clause on the mutated table that the tuple fails ⇒ the tuple
//     cannot instantiate the premise ⇒ not a counterexample;
//   - the consequence on the mutated table satisfied ⇒ every joined
//     instance through the tuple satisfies the rule ⇒ not one either;
//   - every clause evaluable (single-table rule) with premise satisfied
//     and consequence violated ⇒ definite counterexample;
//   - otherwise a clause lives in another relation of the join, the new
//     joined instances are unknown ⇒ conservative counterexample.
func checkInsert(r *rules.Rule, m *query.Mutation, t relation.Tuple) (counterexample, definite bool) {
	allEval := true
	for _, c := range r.LHS {
		v, evaluable := clauseValue(c, m, t)
		if !evaluable {
			allEval = false
			continue
		}
		if !c.Contains(v) {
			return false, false
		}
	}
	v, evaluable := clauseValue(r.RHS, m, t)
	if !evaluable {
		return true, false
	}
	if r.RHS.Contains(v) {
		return false, false
	}
	return true, allEval
}

// coversDelete reports whether the deleted tuple was (possibly) covered
// by the rule's premise: no clause on the mutated table rules it out.
func coversDelete(r *rules.Rule, m *query.Mutation, t relation.Tuple) bool {
	for _, c := range r.LHS {
		v, evaluable := clauseValue(c, m, t)
		if evaluable && !c.Contains(v) {
			return false
		}
	}
	return true
}

// clauseValue evaluates the clause's attribute on the mutated tuple; it
// is only evaluable when the clause names the mutated table and the
// column exists there.
func clauseValue(c rules.Clause, m *query.Mutation, t relation.Tuple) (relation.Value, bool) {
	if !strings.EqualFold(c.Attr.Relation, m.Table) {
		return relation.Value{}, false
	}
	i, ok := m.Schema.Index(c.Attr.Attribute)
	if !ok || i >= len(t) {
		return relation.Value{}, false
	}
	return t[i], true
}
