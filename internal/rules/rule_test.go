package rules

import (
	"reflect"
	"strings"
	"testing"

	"intensional/internal/relation"
)

func TestAttrRef(t *testing.T) {
	a, err := ParseAttrRef("CLASS.Displacement")
	if err != nil {
		t.Fatal(err)
	}
	if a.Relation != "CLASS" || a.Attribute != "Displacement" {
		t.Errorf("parsed %v", a)
	}
	if a.String() != "CLASS.Displacement" {
		t.Errorf("String = %q", a.String())
	}
	if !a.EqualFold(Attr("class", "DISPLACEMENT")) {
		t.Error("EqualFold should ignore case")
	}
	if a.Key() != Attr("Class", "displacement").Key() {
		t.Error("Key should normalise case")
	}
	for _, bad := range []string{"noDot", ".x", "x.", ""} {
		if _, err := ParseAttrRef(bad); err == nil {
			t.Errorf("ParseAttrRef(%q) should error", bad)
		}
	}
}

func TestClauseString(t *testing.T) {
	p := PointClause(Attr("CLASS", "Type"), relation.String("SSBN"))
	if got := p.String(); got != "CLASS.Type = SSBN" {
		t.Errorf("point clause = %q", got)
	}
	r := RangeClause(Attr("CLASS", "Displacement"), relation.Int(7250), relation.Int(30000))
	if got := r.String(); got != "7250 <= CLASS.Displacement <= 30000" {
		t.Errorf("range clause = %q", got)
	}
	if !p.IsPoint() || r.IsPoint() {
		t.Error("IsPoint misclassifies")
	}
	if !r.Contains(relation.Int(8000)) || r.Contains(relation.Int(100)) {
		t.Error("Contains misclassifies")
	}
}

func r9() *Rule {
	return &Rule{
		LHS:     []Clause{RangeClause(Attr("CLASS", "Displacement"), relation.Int(7250), relation.Int(30000))},
		RHS:     PointClause(Attr("CLASS", "Type"), relation.String("SSBN")),
		Support: 4,
	}
}

func r8() *Rule {
	return &Rule{
		LHS:     []Clause{RangeClause(Attr("CLASS", "Displacement"), relation.Int(2145), relation.Int(6955))},
		RHS:     PointClause(Attr("CLASS", "Type"), relation.String("SSN")),
		Support: 9,
	}
}

func TestRuleString(t *testing.T) {
	want := "if 7250 <= CLASS.Displacement <= 30000 then CLASS.Type = SSBN"
	if got := r9().String(); got != want {
		t.Errorf("rule = %q, want %q", got, want)
	}
	multi := &Rule{
		LHS: []Clause{
			PointClause(Attr("A", "x"), relation.Int(1)),
			PointClause(Attr("B", "y"), relation.Int(2)),
		},
		RHS: PointClause(Attr("C", "z"), relation.Int(3)),
	}
	if got := multi.String(); !strings.Contains(got, " and ") {
		t.Errorf("multi-clause rule should join with 'and': %q", got)
	}
}

func TestPremiseSubsumes(t *testing.T) {
	r := r9()
	attr := Attr("CLASS", "Displacement")
	cond := Range(relation.Int(8000), relation.Int(30000))
	if !r.PremiseSubsumes(attr, cond) {
		t.Error("premise [7250,30000] should subsume [8000,30000]")
	}
	if r.PremiseSubsumes(attr, Range(relation.Int(100), relation.Int(200))) {
		t.Error("premise must not subsume a disjoint condition")
	}
	if r.PremiseSubsumes(Attr("CLASS", "Other"), cond) {
		t.Error("different attribute must not match")
	}
	multi := &Rule{
		LHS: []Clause{PointClause(attr, relation.Int(1)), PointClause(Attr("B", "y"), relation.Int(2))},
		RHS: PointClause(Attr("C", "z"), relation.Int(3)),
	}
	if multi.PremiseSubsumes(attr, Point(relation.Int(1))) {
		t.Error("multi-clause premise must not forward-apply from one attribute")
	}
}

func TestConsequenceWithin(t *testing.T) {
	r := r9()
	attr := Attr("CLASS", "Type")
	if !r.ConsequenceWithin(attr, Point(relation.String("SSBN"))) {
		t.Error("RHS Type=SSBN lies within condition Type=SSBN")
	}
	if r.ConsequenceWithin(attr, Point(relation.String("SSN"))) {
		t.Error("RHS Type=SSBN not within Type=SSN")
	}
	if r.ConsequenceWithin(Attr("CLASS", "Other"), Everything()) {
		t.Error("different attribute must not match")
	}
}

func TestSetBasics(t *testing.T) {
	s := NewSet()
	a := s.Add(r9())
	b := s.Add(r8())
	if a.ID != 1 || b.ID != 2 {
		t.Errorf("IDs = %d, %d; want 1, 2", a.ID, b.ID)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	sch := Scheme{X: Attr("CLASS", "Displacement"), Y: Attr("CLASS", "Type")}
	if got := s.ByScheme(sch); len(got) != 2 {
		t.Errorf("ByScheme = %d rules", len(got))
	}
	if got := s.WithConsequenceOn(Attr("CLASS", "Type")); len(got) != 2 {
		t.Errorf("WithConsequenceOn = %d rules", len(got))
	}
	if got := s.Schemes(); len(got) != 1 || got[0].Key() != sch.Key() {
		t.Errorf("Schemes = %v", got)
	}
	out := s.String()
	if !strings.Contains(out, "R1: if") || !strings.Contains(out, "R2: if") {
		t.Errorf("Set.String:\n%s", out)
	}
}

func TestSetByID(t *testing.T) {
	s := NewSet()
	a := s.Add(r9())
	if got, ok := s.ByID(a.ID); !ok || got != a {
		t.Errorf("ByID(%d) = %v, %v", a.ID, got, ok)
	}
	if _, ok := s.ByID(999); ok {
		t.Error("ByID(999) should miss")
	}
}

// TestSetIndexes checks the lookups Add builds against the rule order:
// premise runs cover every rule once, in order, and split wherever the
// premise attribute (compared case-insensitively) changes, a premise has
// two clauses, or a range does not start above the previous one;
// attribute lookups keep insertion order; a duplicate rule number
// resolves to the first rule that carried it.
func TestSetIndexes(t *testing.T) {
	disp, typ := Attr("CLASS", "Displacement"), Attr("CLASS", "Type")
	rule := func(id int, x AttrRef, lo, hi int64) *Rule {
		return &Rule{ID: id, LHS: []Clause{RangeClause(x, relation.Int(lo), relation.Int(hi))},
			RHS: PointClause(typ, relation.String("SSN"))}
	}
	two := &Rule{ID: 4, LHS: []Clause{PointClause(disp, relation.Int(1)), PointClause(typ, relation.String("SSN"))},
		RHS: PointClause(disp, relation.Int(2))}
	s := NewSet()
	for _, r := range []*Rule{rule(1, disp, 1, 3), rule(2, Attr("class", "DISPLACEMENT"), 4, 9), rule(3, disp, 9, 12),
		rule(6, typ, 1, 1), two, rule(5, disp, 1, 1), rule(5, typ, 1, 1)} {
		s.Add(r)
	}
	var runs [][]int
	var keys []string
	for _, run := range s.PremiseRuns() {
		keys = append(keys, run.Key)
		var ids []int
		for _, r := range run.Rules {
			ids = append(ids, r.ID)
		}
		runs = append(runs, ids)
	}
	wantKeys := []string{"class.displacement", "class.displacement", "class.type", "", "class.displacement", "class.type"}
	if !reflect.DeepEqual(keys, wantKeys) {
		t.Errorf("run keys = %q, want %q", keys, wantKeys)
	}
	if want := [][]int{{1, 2}, {3}, {6}, {4}, {5}, {5}}; !reflect.DeepEqual(runs, want) {
		t.Errorf("runs = %v, want %v", runs, want)
	}
	idsOf := func(rs []*Rule) []int {
		var out []int
		for _, r := range rs {
			out = append(out, r.ID)
		}
		return out
	}
	if got := idsOf(s.WithConsequenceOn(disp)); !reflect.DeepEqual(got, []int{4}) {
		t.Errorf("WithConsequenceOn = %v, want [4]", got)
	}
	if r, ok := s.ByID(5); !ok || r.LHS[0].Attr != disp {
		t.Errorf("ByID(5) = %v, %v; want the first rule numbered 5", r, ok)
	}
}

func TestSetExplicitIDs(t *testing.T) {
	s := NewSet()
	s.Add(&Rule{ID: 9, LHS: r9().LHS, RHS: r9().RHS})
	next := s.Add(r8())
	if next.ID != 10 {
		t.Errorf("next ID = %d, want 10", next.ID)
	}
}

func TestPrune(t *testing.T) {
	s := NewSet()
	s.Add(r9()) // support 4
	s.Add(r8()) // support 9
	one := &Rule{
		LHS:     []Clause{PointClause(Attr("CLASS", "Class"), relation.String("1301"))},
		RHS:     PointClause(Attr("CLASS", "Type"), relation.String("SSBN")),
		Support: 1,
	}
	s.Add(one)
	pruned := s.Prune(2)
	if pruned.Len() != 2 {
		t.Fatalf("Prune(2) kept %d rules, want 2", pruned.Len())
	}
	for _, r := range pruned.Rules() {
		if r.Support < 2 {
			t.Errorf("rule R%d with support %d survived pruning", r.ID, r.Support)
		}
	}
	// The paper's R_new: at Nc=1 the single-instance rule is retained.
	if s.Prune(1).Len() != 3 {
		t.Error("Prune(1) should keep all rules")
	}
}

func TestRuleEqual(t *testing.T) {
	if !r9().Equal(r9()) {
		t.Error("identical rules should be Equal")
	}
	if r9().Equal(r8()) {
		t.Error("different rules should not be Equal")
	}
	a := r9()
	b := r9()
	b.ID, b.Support = 99, 99
	if !a.Equal(b) {
		t.Error("Equal must ignore ID and Support")
	}
}
