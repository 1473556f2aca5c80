// Package infer implements the paper's inference processor (Section 4):
// forward inference (Modus Ponens — a rule fires when its premise
// subsumes a known fact, traversing the type hierarchies downward) and
// backward inference (a rule whose consequence lies within a known fact
// contributes its premise as a partial description of the answer).
// Conditions are snapped to the attribute's observed values before
// subsumption — the closed-world step that makes "Displacement > 8000"
// subsumed by R9's premise [7250..30000] in Example 1.
package infer

import (
	"fmt"
	"sort"
	"strings"

	"intensional/internal/dict"
	"intensional/internal/query"
	"intensional/internal/rules"
)

// Fact is one piece of knowledge about every tuple of the answer: the
// attribute's value lies in Interval. Original facts restate query
// restrictions; derived facts come from forward inference.
type Fact struct {
	Attr     rules.AttrRef
	Interval rules.Interval
	Derived  bool
	Via      []int // rule IDs that produced or narrowed the fact
	// Subtype names the hierarchy subtype the fact pins the object to,
	// when the attribute is a classifying attribute and the interval is a
	// single known classifying value.
	Subtype string
}

// String renders the fact.
func (f Fact) String() string {
	s := fmt.Sprintf("%s in %s", f.Attr, f.Interval)
	if f.Subtype != "" {
		s += fmt.Sprintf(" (isa %s)", f.Subtype)
	}
	return s
}

// Description is one backward-inference component: the instances
// satisfying Clause carry the consequence fact. It characterises a set
// contained in (not containing) the extensional answer, so it may be
// partial — the paper's Example 2 incompleteness.
type Description struct {
	Clause      rules.Clause
	Consequence rules.Clause
	Via         int    // rule ID
	Subtype     string // subtype named by the consequence, when classifying
	// Aliases lists the attributes equivalent to the clause's attribute
	// under the query's joins and the schema's links — the renderer uses
	// them to match the clause against the query's projection.
	Aliases []rules.AttrRef
}

// String renders the description.
func (d Description) String() string {
	return fmt.Sprintf("%s ⊆ answers (then %s, via R%d)", d.Clause, d.Consequence, d.Via)
}

// Result is the full output of type inference over one query.
type Result struct {
	// Facts holds every fact at fixpoint, original and derived. Derived
	// facts are the forward intensional answer: they characterise a set
	// CONTAINING the extensional answer.
	Facts []Fact
	// Descriptions holds the backward components: each characterises a
	// set CONTAINED IN the extensional answer.
	Descriptions []Description
	// Conjunctive reports whether the query analysis supported inference
	// (non-conjunctive queries yield no intensional answer).
	Conjunctive bool
	// Empty reports that the extensional answer is provably empty: some
	// restriction, clipped to the attribute's active domain, admits no
	// value (e.g. "Displacement < 2000" when no ship is below 2145).
	Empty bool
	// EmptyBecause names the restrictions that prove emptiness.
	EmptyBecause []query.Restriction
}

// Explain renders the derivation trace: every fact with the rules that
// produced or narrowed it, and every backward description with its rule.
// The rule set resolves rule numbers to their text.
func (r *Result) Explain(set *rules.Set) string {
	var b strings.Builder
	if !r.Conjunctive {
		b.WriteString("no derivation: the query condition is not a pure conjunction\n")
		return b.String()
	}
	if r.Empty {
		for _, why := range r.EmptyBecause {
			fmt.Fprintf(&b, "answer proven empty: no stored value satisfies %s\n", why)
		}
		return b.String()
	}
	for _, f := range r.Facts {
		if !f.Derived {
			fmt.Fprintf(&b, "condition: %s (from the query, snapped to observed values)\n", f)
			continue
		}
		fmt.Fprintf(&b, "derived:   %s\n", f)
		for _, id := range f.Via {
			if rule, ok := set.ByID(id); ok {
				fmt.Fprintf(&b, "           by R%d: %s\n", id, rule)
			} else {
				fmt.Fprintf(&b, "           by R%d\n", id)
			}
		}
	}
	for _, d := range r.Descriptions {
		fmt.Fprintf(&b, "partial:   %s ⇒ %s", d.Clause, d.Consequence)
		if d.Subtype != "" {
			fmt.Fprintf(&b, " (isa %s)", d.Subtype)
		}
		if rule, ok := set.ByID(d.Via); ok {
			fmt.Fprintf(&b, "\n           by R%d: %s\n", d.Via, rule)
		} else {
			fmt.Fprintf(&b, "\n           by R%d\n", d.Via)
		}
	}
	if b.Len() == 0 {
		b.WriteString("no facts or descriptions derived\n")
	}
	return b.String()
}

// Forward returns only the derived facts.
func (r *Result) Forward() []Fact {
	var out []Fact
	for _, f := range r.Facts {
		if f.Derived {
			out = append(out, f)
		}
	}
	return out
}

// Processor derives intensional answers from query analyses using the
// dictionary's rule base, hierarchies, and active domains.
type Processor struct {
	d *dict.Dictionary
}

// New creates a processor over the dictionary.
func New(d *dict.Dictionary) *Processor { return &Processor{d: d} }

// equivalence is a union-find over attribute keys built from the query's
// join predicates and the dictionary's hierarchy-level links: attributes
// equated by a join carry the same facts.
type equivalence struct {
	parent map[string]string
	attrs  map[string]rules.AttrRef
}

func newEquivalence() *equivalence {
	return &equivalence{parent: map[string]string{}, attrs: map[string]rules.AttrRef{}}
}

func (e *equivalence) add(a rules.AttrRef) string { return e.addKey(a.Key(), a) }

// addKey registers a under its precomputed key k. The first registration
// of a key fixes the spelling classOf reports for it.
func (e *equivalence) addKey(k string, a rules.AttrRef) string {
	if _, ok := e.parent[k]; !ok {
		e.parent[k] = k
		e.attrs[k] = a
	}
	return k
}

func (e *equivalence) find(k string) string {
	for e.parent[k] != k {
		e.parent[k] = e.parent[e.parent[k]]
		k = e.parent[k]
	}
	return k
}

func (e *equivalence) union(a, b rules.AttrRef) {
	ra, rb := e.find(e.add(a)), e.find(e.add(b))
	if ra != rb {
		e.parent[ra] = rb
	}
}

// classOf returns every attribute equivalent to a (including a itself),
// in attribute-key order — members are collected from a map, and their
// order decides which backward-inference rule fires first.
func (e *equivalence) classOf(a rules.AttrRef) []rules.AttrRef {
	root := e.find(e.add(a))
	var keys []string
	for k := range e.parent {
		if e.find(k) == root {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := make([]rules.AttrRef, len(keys))
	for i, k := range keys {
		out[i] = e.attrs[k]
	}
	return out
}

// Derive runs forward inference to fixpoint and then the backward step,
// returning the structured result.
func (p *Processor) Derive(an *query.Analysis) (*Result, error) {
	res := &Result{Conjunctive: an.Conjunctive}
	if !an.Conjunctive {
		return res, nil
	}

	eq := newEquivalence()
	for _, j := range an.Joins {
		eq.union(j.L, j.R)
	}
	// Hierarchy-level links and relationship links are schema-level
	// identities (foreign keys), valid whether or not the query joins the
	// relations explicitly — Example 3 restricts INSTALL.Sonar without
	// joining SONAR, yet rules on SONAR.Sonar must fire.
	for _, l := range p.d.LevelLinks() {
		eq.union(l.From, l.To)
	}
	for _, rel := range p.d.Relationships() {
		for _, l := range rel.Links {
			eq.union(l.From, l.To)
		}
	}

	// facts maps equivalence-class roots to the current fact.
	type entry struct {
		fact Fact
		root string
	}
	facts := map[string]*entry{}

	addFact := func(attr rules.AttrRef, iv rules.Interval, via []int, derived bool) bool {
		root := eq.find(eq.add(attr))
		if cur, ok := facts[root]; ok {
			narrowed := cur.fact.Interval.Intersect(iv)
			if cur.fact.Interval.Subsumes(narrowed) && narrowed.Subsumes(cur.fact.Interval) {
				return false // no change
			}
			cur.fact.Interval = narrowed
			cur.fact.Via = append(cur.fact.Via, via...)
			cur.fact.Derived = cur.fact.Derived || derived
			return true
		}
		facts[root] = &entry{
			fact: Fact{Attr: attr, Interval: iv, Derived: derived, Via: via},
			root: root,
		}
		return true
	}

	// Seed with the query restrictions, snapped to the attribute's
	// observed values (closed world). A restriction no stored value
	// satisfies proves the extensional answer is empty — itself an
	// intensional answer.
	for _, r := range an.Restrictions {
		if !r.HasInterval {
			continue
		}
		iv := r.Interval
		if snapped, ok, err := p.d.SnapToObserved(r.Attr, iv); err == nil {
			if !ok {
				res.Empty = true
				res.EmptyBecause = append(res.EmptyBecause, r)
				continue
			}
			iv = snapped
		}
		addFact(r.Attr, iv, nil, false)
	}
	if res.Empty {
		return res, nil
	}

	// Forward chaining to fixpoint. Each pass walks the rules in set
	// order, one premise run at a time: a run whose premise attribute's
	// equivalence class holds no fact cannot fire, and one lookup of the
	// key the set computed at Add skips it; in a run that can fire,
	// Subsuming finds the rules whose premise holds the fact, in order.
	// Registering the run's attribute is a no-op after the first pass;
	// in the first it gives each premise attribute the spelling of its
	// first mention in the rule base, which classOf reports in
	// description aliases.
	ruleSet := p.d.Rules()
	for pass := 0; pass < ruleSet.Len()+len(an.Restrictions)+1; pass++ {
		changed := false
		for _, run := range ruleSet.PremiseRuns() {
			if run.Key == "" {
				continue // multi-clause premises do not fire from one fact
			}
			cur, ok := facts[eq.find(eq.addKey(run.Key, run.Rules[0].LHS[0].Attr))]
			if !ok {
				continue
			}
			// A rule that fires may narrow cur, so each search uses the
			// fact as it stands.
			for i := run.Subsuming(0, cur.fact.Interval); i < len(run.Rules); i = run.Subsuming(i+1, cur.fact.Interval) {
				r := run.Rules[i]
				if addFact(r.RHS.Attr, r.RHS.Interval(), []int{r.ID}, true) {
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}

	// Collect facts in a stable order: restrictions first, then derived
	// facts by first rule ID.
	var out []Fact
	for _, e := range facts {
		f := e.fact
		f.Subtype = p.subtypeOf(eq, f)
		out = append(out, f)
	}
	sortFacts(out)
	res.Facts = out

	// Backward step: for every fact, rules whose consequence lies within
	// it contribute their premise as a partial description.
	seen := map[int]bool{}
	for _, f := range res.Facts {
		for _, attr := range eq.classOf(f.Attr) {
			for _, r := range ruleSet.WithConsequenceOn(attr) {
				if seen[r.ID] || len(r.LHS) != 1 {
					continue
				}
				if !r.RHS.Interval().Within(f.Interval) {
					continue
				}
				seen[r.ID] = true
				d := Description{
					Clause:      r.LHS[0],
					Consequence: r.RHS,
					Via:         r.ID,
					Aliases:     eq.classOf(r.LHS[0].Attr),
				}
				if name, ok := p.classifyingSubtype(r.RHS); ok {
					d.Subtype = name
				}
				res.Descriptions = append(res.Descriptions, d)
			}
		}
	}
	return res, nil
}

// subtypeOf resolves the subtype a fact pins its object to, looking
// through the attribute's equivalence class for a classifying attribute.
func (p *Processor) subtypeOf(eq *equivalence, f Fact) string {
	if !f.Interval.IsPoint() {
		return ""
	}
	v := f.Interval.Lo.Value
	for _, attr := range eq.classOf(f.Attr) {
		h, ok := p.d.Hierarchy(attr.Relation)
		if !ok || !strings.EqualFold(h.ClassifyingAttr, attr.Attribute) {
			continue
		}
		if name, ok := h.SubtypeFor(v); ok {
			return name
		}
	}
	return ""
}

// classifyingSubtype resolves the subtype named by a point clause on a
// classifying attribute.
func (p *Processor) classifyingSubtype(c rules.Clause) (string, bool) {
	if !c.IsPoint() {
		return "", false
	}
	h, ok := p.d.Hierarchy(c.Attr.Relation)
	if !ok || !strings.EqualFold(h.ClassifyingAttr, c.Attr.Attribute) {
		return "", false
	}
	return h.SubtypeFor(c.Lo)
}

// sortFacts orders original facts before derived ones, then by attribute
// key for determinism.
func sortFacts(fs []Fact) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && factLess(fs[j], fs[j-1]); j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

func factLess(a, b Fact) bool {
	if a.Derived != b.Derived {
		return !a.Derived
	}
	return a.Attr.Key() < b.Attr.Key()
}
