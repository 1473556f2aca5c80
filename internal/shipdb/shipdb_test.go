package shipdb_test

import (
	"testing"

	"intensional/internal/relation"
	"intensional/internal/shipdb"
	"intensional/internal/storage"
)

// TestCatalogMatchesAppendixC pins the embedded instance against the
// counts and spot values the paper's Appendix C prints.
func TestCatalogMatchesAppendixC(t *testing.T) {
	cat := shipdb.Catalog()
	counts := map[string]int{
		shipdb.Submarine: 24,
		shipdb.Class:     13,
		shipdb.TypeRel:   2,
		shipdb.Sonar:     8,
		shipdb.Install:   24,
	}
	for name, want := range counts {
		r, err := cat.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if r.Len() != want {
			t.Errorf("%s has %d rows, want %d", name, r.Len(), want)
		}
	}
	cls, _ := cat.Get(shipdb.Class)
	p, err := relation.Cmp(cls.Schema(), "Class", "=", relation.String("1301"))
	if err != nil {
		t.Fatal(err)
	}
	typhoon := cls.Select(p)
	if typhoon.Len() != 1 || typhoon.Row(0)[3].Int64() != 30000 {
		t.Errorf("Typhoon class row = %v", typhoon.Rows())
	}
}

// TestReferentialIntegrity checks the foreign keys the INSTALL
// relationship and the class hierarchy depend on.
func TestReferentialIntegrity(t *testing.T) {
	cat := shipdb.Catalog()
	sub, _ := cat.Get(shipdb.Submarine)
	cls, _ := cat.Get(shipdb.Class)
	son, _ := cat.Get(shipdb.Sonar)
	inst, _ := cat.Get(shipdb.Install)

	classes := map[string]bool{}
	for _, row := range cls.Rows() {
		classes[row[0].Str()] = true
	}
	ships := map[string]bool{}
	for _, row := range sub.Rows() {
		ships[row[0].Str()] = true
		if !classes[row[2].Str()] {
			t.Errorf("ship %s references unknown class %s", row[0], row[2])
		}
	}
	sonars := map[string]bool{}
	for _, row := range son.Rows() {
		sonars[row[0].Str()] = true
	}
	for _, row := range inst.Rows() {
		if !ships[row[0].Str()] {
			t.Errorf("INSTALL references unknown ship %s", row[0])
		}
		if !sonars[row[1].Str()] {
			t.Errorf("INSTALL references unknown sonar %s", row[1])
		}
	}
}

// TestClassTypesPartition checks the hierarchy property the paper's type
// inference relies on: CLASS instances partition into SSBN and SSN.
func TestClassTypesPartition(t *testing.T) {
	cat := shipdb.Catalog()
	cls, _ := cat.Get(shipdb.Class)
	for _, row := range cls.Rows() {
		typ := row[2].Str()
		if typ != "SSBN" && typ != "SSN" {
			t.Errorf("class %s has unexpected type %q", row[0], typ)
		}
	}
}

func TestPaperRulesShape(t *testing.T) {
	set := shipdb.PaperRules()
	if set.Len() != 17 {
		t.Fatalf("paper rules = %d, want 17", set.Len())
	}
	for i, r := range set.Rules() {
		if r.ID != i+1 {
			t.Errorf("rule %d has ID %d", i, r.ID)
		}
		if len(r.LHS) != 1 {
			t.Errorf("R%d has %d LHS clauses, want 1", r.ID, len(r.LHS))
		}
		if !r.RHS.IsPoint() {
			t.Errorf("R%d consequence is not a point: %s", r.ID, r.RHS)
		}
	}
}

// TestPaperRulesSatisfiedByData checks every paper rule (in the
// data-consistent form) against the embedded instance: no tuple may
// violate an intra-object rule.
func TestPaperRulesSatisfiedByData(t *testing.T) {
	cat := shipdb.Catalog()
	for _, r := range shipdb.PaperRules().Rules() {
		lhs := r.LHS[0]
		if lhs.Attr.Relation != r.RHS.Attr.Relation {
			continue // inter-object rules need the join; covered in induct tests
		}
		rel, err := cat.Get(lhs.Attr.Relation)
		if err != nil {
			t.Fatal(err)
		}
		xi := rel.Schema().MustIndex(lhs.Attr.Attribute)
		yi := rel.Schema().MustIndex(r.RHS.Attr.Attribute)
		for _, row := range rel.Rows() {
			if lhs.Contains(row[xi]) && !r.RHS.Contains(row[yi]) {
				t.Errorf("R%d (%s) violated by %v", r.ID, r, row)
			}
		}
	}
}

func TestDictionaryBuilds(t *testing.T) {
	if _, err := shipdb.Dictionary(shipdb.Catalog()); err != nil {
		t.Fatal(err)
	}
	// A catalog missing the ship relations must fail fast.
	if _, err := shipdb.Dictionary(storage.NewCatalog()); err == nil {
		t.Error("dictionary over empty catalog should error")
	}
}
