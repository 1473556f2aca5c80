package infer

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"intensional/internal/dict"
	"intensional/internal/query"
	"intensional/internal/relation"
	"intensional/internal/rules"
	"intensional/internal/storage"
)

// deriveFullScan is Derive's specification: every forward-chaining pass
// tests every rule, registering each premise attribute as it goes, and
// the backward step finds rules by scanning the whole rule base. Derive
// must return a Result deeply equal to this one.
func deriveFullScan(p *Processor, an *query.Analysis) (*Result, error) {
	res := &Result{Conjunctive: an.Conjunctive}
	if !an.Conjunctive {
		return res, nil
	}
	eq := newEquivalence()
	for _, j := range an.Joins {
		eq.union(j.L, j.R)
	}
	for _, l := range p.d.LevelLinks() {
		eq.union(l.From, l.To)
	}
	for _, rel := range p.d.Relationships() {
		for _, l := range rel.Links {
			eq.union(l.From, l.To)
		}
	}
	type entry struct{ fact Fact }
	facts := map[string]*entry{}
	addFact := func(attr rules.AttrRef, iv rules.Interval, via []int, derived bool) bool {
		root := eq.find(eq.add(attr))
		if cur, ok := facts[root]; ok {
			narrowed := cur.fact.Interval.Intersect(iv)
			if cur.fact.Interval.Subsumes(narrowed) && narrowed.Subsumes(cur.fact.Interval) {
				return false
			}
			cur.fact.Interval = narrowed
			cur.fact.Via = append(cur.fact.Via, via...)
			cur.fact.Derived = cur.fact.Derived || derived
			return true
		}
		facts[root] = &entry{fact: Fact{Attr: attr, Interval: iv, Derived: derived, Via: via}}
		return true
	}
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
	ruleSet := p.d.Rules()
	for pass := 0; pass < ruleSet.Len()+len(an.Restrictions)+1; pass++ {
		changed := false
		for _, r := range ruleSet.Rules() {
			if len(r.LHS) != 1 {
				continue
			}
			premise := r.LHS[0]
			cur, ok := facts[eq.find(eq.add(premise.Attr))]
			if !ok || !premise.Interval().Subsumes(cur.fact.Interval) {
				continue
			}
			if addFact(r.RHS.Attr, r.RHS.Interval(), []int{r.ID}, true) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	var out []Fact
	for _, e := range facts {
		f := e.fact
		f.Subtype = p.subtypeOf(eq, f)
		out = append(out, f)
	}
	sortFacts(out)
	res.Facts = out
	seen := map[int]bool{}
	for _, f := range res.Facts {
		for _, attr := range eq.classOf(f.Attr) {
			for _, r := range ruleSet.Rules() {
				if !r.RHS.Attr.EqualFold(attr) || seen[r.ID] || len(r.LHS) != 1 {
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

// indexWorld is a three-relation schema whose attributes are linked into
// shared equivalence classes: B.K refers to A.K through a relationship
// and B.C to CL.C through a hierarchy level link, and both A and CL
// carry hierarchies.
var indexWorld = []struct {
	rel, attr string
	typ       relation.Type
}{
	{"A", "X", relation.TInt}, {"A", "T", relation.TString}, {"A", "K", relation.TInt},
	{"B", "K", relation.TInt}, {"B", "Y", relation.TInt}, {"B", "C", relation.TString},
	{"CL", "C", relation.TString}, {"CL", "Z", relation.TInt},
}

func indexValue(rr *rand.Rand, typ relation.Type, attr string) relation.Value {
	if typ == relation.TString {
		return relation.String(fmt.Sprintf("%s%d", strings.ToLower(attr), rr.Intn(4)))
	}
	return relation.Int(int64(rr.Intn(20)))
}

// respell returns s with each letter's case drawn at random.
func respell(rr *rand.Rand, s string) string {
	b := []byte(s)
	for i, c := range b {
		if rr.Intn(2) == 0 {
			b[i] = byte(strings.ToLower(string(c))[0])
		}
	}
	return string(b)
}

func indexAttr(rr *rand.Rand, i int) rules.AttrRef {
	w := indexWorld[i]
	return rules.Attr(respell(rr, w.rel), respell(rr, w.attr))
}

func indexClause(rr *rand.Rand, i int) rules.Clause {
	w := indexWorld[i]
	a, b := indexValue(rr, w.typ, w.attr), indexValue(rr, w.typ, w.attr)
	if rr.Intn(3) == 0 {
		return rules.PointClause(indexAttr(rr, i), a)
	}
	if b.Less(a) {
		a, b = b, a
	}
	return rules.RangeClause(indexAttr(rr, i), a, b)
}

func indexDict(t *testing.T, rr *rand.Rand) *dict.Dictionary {
	t.Helper()
	cat := storage.NewCatalog()
	byRel := map[string][]relation.Column{}
	var order []string
	for _, w := range indexWorld {
		if _, ok := byRel[w.rel]; !ok {
			order = append(order, w.rel)
		}
		byRel[w.rel] = append(byRel[w.rel], relation.Column{Name: w.attr, Type: w.typ})
	}
	for _, name := range order {
		cols := byRel[name]
		r := relation.New(name, relation.MustSchema(cols...))
		for n := 3 + rr.Intn(20); n > 0; n-- {
			row := make(relation.Tuple, len(cols))
			for i, c := range cols {
				row[i] = indexValue(rr, c.Type, c.Name)
			}
			r.MustInsert(row...)
		}
		cat.Put(r)
	}
	d := dict.New(cat)
	for _, h := range []struct{ obj, attr string }{{"A", "T"}, {"CL", "C"}} {
		hier := &dict.Hierarchy{Object: h.obj, ClassifyingAttr: h.attr}
		for v := 0; v < 4; v++ {
			name := fmt.Sprintf("%s%d", strings.ToLower(h.attr), v)
			hier.Subtypes = append(hier.Subtypes, dict.Subtype{Name: strings.ToUpper(name), Value: relation.String(name)})
		}
		if err := d.AddHierarchy(hier); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.AddLevelLink(dict.Link{From: rules.Attr("B", "C"), To: rules.Attr("CL", "C")}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddRelationship(&dict.Relationship{Name: "B",
		Links: []dict.Link{{From: rules.Attr("B", "K"), To: rules.Attr("A", "K")}}}); err != nil {
		t.Fatal(err)
	}
	return d
}

// inducedPremises draws ascending, disjoint premise clauses on attribute
// i — points and ranges over the attribute's values, as induction's
// step 3 lays out one scheme.
func inducedPremises(rr *rand.Rand, i int) []rules.Clause {
	w := indexWorld[i]
	var vals []relation.Value
	if w.typ == relation.TString {
		for v := 0; v < 4; v++ {
			vals = append(vals, relation.String(fmt.Sprintf("%s%d", strings.ToLower(w.attr), v)))
		}
	} else {
		for v := 0; v < 20; v++ {
			vals = append(vals, relation.Int(int64(v)))
		}
	}
	var out []rules.Clause
	for k := rr.Intn(3); k < len(vals); k += 1 + rr.Intn(3) {
		hi := min(k+rr.Intn(4), len(vals)-1)
		out = append(out, rules.RangeClause(indexAttr(rr, i), vals[k], vals[hi]))
		k = hi
	}
	return out
}

// indexRules draws a rule base in scheme groups, as induction adds them:
// some schemes with ascending disjoint premises, so that Subsuming's
// binary search runs, and some with premises in any order. A few rules
// are then moved so that runs split. Premises and consequences are
// respelled rule by rule, and some premises have two clauses.
func indexRules(rr *rand.Rand) *rules.Set {
	var all []*rules.Rule
	for s := 1 + rr.Intn(8); s > 0; s-- {
		x, y := rr.Intn(len(indexWorld)), rr.Intn(len(indexWorld))
		var premises []rules.Clause
		if rr.Intn(2) == 0 {
			premises = inducedPremises(rr, x)
		} else {
			for n := 1 + rr.Intn(6); n > 0; n-- {
				premises = append(premises, indexClause(rr, x))
			}
		}
		for _, c := range premises {
			r := &rules.Rule{LHS: []rules.Clause{c}, RHS: indexClause(rr, y), Support: 1}
			if rr.Intn(8) == 0 {
				r.LHS = append(r.LHS, indexClause(rr, rr.Intn(len(indexWorld))))
			}
			all = append(all, r)
		}
	}
	for m := rr.Intn(4); m > 0 && len(all) > 1; m-- {
		i, j := rr.Intn(len(all)), rr.Intn(len(all))
		all[i], all[j] = all[j], all[i]
	}
	set := rules.NewSet()
	for _, r := range all {
		set.Add(r)
	}
	return set
}

func indexAnalysis(rr *rand.Rand) *query.Analysis {
	an := &query.Analysis{Conjunctive: true}
	ops := []string{"=", "<", "<=", ">", ">="}
	for n := 1 + rr.Intn(3); n > 0; n-- {
		i := rr.Intn(len(indexWorld))
		w := indexWorld[i]
		op, v := ops[rr.Intn(len(ops))], indexValue(rr, w.typ, w.attr)
		iv, err := rules.FromOp(op, v)
		an.Restrictions = append(an.Restrictions, query.Restriction{
			Attr: indexAttr(rr, i), Op: op, Val: v, HasInterval: err == nil && rr.Intn(8) != 0, Interval: iv,
		})
	}
	for n := rr.Intn(3); n > 0; n-- {
		i, j := rr.Intn(len(indexWorld)), rr.Intn(len(indexWorld))
		if indexWorld[i].typ == indexWorld[j].typ {
			an.Joins = append(an.Joins, query.JoinPred{L: indexAttr(rr, i), R: indexAttr(rr, j)})
		}
	}
	return an
}

// TestDeriveMatchesFullScanProperty: over random rule bases — split
// premise runs, multi-clause premises, attribute names spelt in mixed
// case, and joins and links that put several attributes in one class —
// Derive's run-by-run chaining and indexed backward lookup return a
// Result deeply equal to the full scan's, aliases' spelling included.
func TestDeriveMatchesFullScanProperty(t *testing.T) {
	derived, described, longRuns := 0, 0, 0
	for seed := int64(0); seed < 300; seed++ {
		rr := rand.New(rand.NewSource(seed))
		d := indexDict(t, rr)
		d.SetRules(indexRules(rr))
		for _, run := range d.Rules().PremiseRuns() {
			if len(run.Rules) > 2 {
				longRuns++
			}
		}
		p := New(d)
		for q := 0; q < 10; q++ {
			an := indexAnalysis(rr)
			want, err := deriveFullScan(p, an)
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.Derive(an)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d query %d: Derive differs from the full scan\nrules:\n%s\ngot:  %+v\nwant: %+v",
					seed, q, d.Rules(), got, want)
			}
			if len(got.Forward()) > 0 {
				derived++
			}
			if len(got.Descriptions) > 0 {
				described++
			}
		}
	}
	// The comparison only means something if chaining and the backward
	// step actually ran on a good share of the cases.
	if derived < 300 || described < 300 || longRuns < 300 {
		t.Errorf("only %d results with derived facts and %d with descriptions of 3000, and %d runs of three rules or more",
			derived, described, longRuns)
	}
}
