package baseline_test

import (
	"testing"

	"intensional/internal/baseline"
	"intensional/internal/dict"
	"intensional/internal/infer"
	"intensional/internal/ker"
	"intensional/internal/query"
	"intensional/internal/relation"
	"intensional/internal/rules"
	"intensional/internal/shipdb"
	"intensional/internal/storage"
)

func baselineSetup(t *testing.T, opts baseline.Options) (*dict.Dictionary, *query.Processor) {
	t.Helper()
	cat := shipdb.Catalog()
	d, err := shipdb.Dictionary(cat)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ker.Parse(shipdb.KERSchema)
	if err != nil {
		t.Fatal(err)
	}
	set, err := baseline.FromModel(m, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	d.SetRules(set)
	return d, query.New(cat, nil, nil)
}

func TestConstraintOnlyRuleSet(t *testing.T) {
	d, _ := baselineSetup(t, baseline.Options{})
	set := d.Rules()
	// Appendix B declares exactly two constraint rules (the Class-range →
	// Type rules of object type CLASS).
	if set.Len() != 2 {
		t.Fatalf("constraint-only rules = %d, want 2:\n%s", set.Len(), set)
	}
	want := &rules.Rule{
		LHS: []rules.Clause{rules.RangeClause(rules.Attr("CLASS", "Class"),
			strVal("0101"), strVal("0103"))},
		RHS: rules.PointClause(rules.Attr("CLASS", "Type"), strVal("SSBN")),
	}
	if !set.Rules()[0].Equal(want) {
		t.Errorf("rule 0 = %s", set.Rules()[0])
	}
}

func TestWithStructureRules(t *testing.T) {
	d, _ := baselineSetup(t, baseline.Options{IncludeStructureRules: true})
	set := d.Rules()
	// 2 constraint rules + 2 CLASS structure rules + 3 SONAR + 4 INSTALL.
	if set.Len() != 11 {
		t.Fatalf("rules = %d, want 11:\n%s", set.Len(), set)
	}
}

// TestExample1BaselineWeaker is the A3 comparison: with integrity
// constraints only, Example 1 derives no intensional answer (no declared
// rule covers displacement), while induced rules derive Type = SSBN.
func TestExample1BaselineWeaker(t *testing.T) {
	d, q := baselineSetup(t, baseline.Options{})
	prep, err := q.Prepare(`SELECT SUBMARINE.ID FROM SUBMARINE, CLASS
		WHERE SUBMARINE.CLASS = CLASS.CLASS AND CLASS.DISPLACEMENT > 8000`, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := infer.New(d).Derive(prep.Analysis)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Forward()); n != 0 {
		t.Errorf("constraint-only baseline should derive nothing for Example 1, got %v", res.Forward())
	}
}

// TestExample2BaselineEquivalent: the declared Class-range constraint
// gives Example 2 the same backward description the induced R5 gives.
func TestExample2BaselineEquivalent(t *testing.T) {
	d, q := baselineSetup(t, baseline.Options{})
	prep, err := q.Prepare(`SELECT SUBMARINE.NAME, SUBMARINE.CLASS FROM SUBMARINE, CLASS
		WHERE SUBMARINE.CLASS = CLASS.CLASS AND CLASS.TYPE = "SSBN"`, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := infer.New(d).Derive(prep.Analysis)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, desc := range res.Descriptions {
		if desc.Clause.Attr.EqualFold(rules.Attr("CLASS", "Class")) &&
			desc.Clause.Lo.Str() == "0101" && desc.Clause.Hi.Str() == "0103" {
			found = true
		}
	}
	if !found {
		t.Errorf("baseline should find the Class range: %v", res.Descriptions)
	}
}

// TestExample3BaselineWithStructureRules: the declared INSTALL structure
// rule "y.Sonar = BQS-04 then x isa SSN" fires forward for Example 3.
func TestExample3BaselineWithStructureRules(t *testing.T) {
	d, q := baselineSetup(t, baseline.Options{IncludeStructureRules: true})
	prep, err := q.Prepare(`SELECT SUBMARINE.NAME FROM SUBMARINE, CLASS, INSTALL
		WHERE SUBMARINE.CLASS = CLASS.CLASS AND SUBMARINE.ID = INSTALL.SHIP
		AND INSTALL.SONAR = "BQS-04"`, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := infer.New(d).Derive(prep.Analysis)
	if err != nil {
		t.Fatal(err)
	}
	gotSSN := false
	for _, f := range res.Forward() {
		if f.Subtype == "SSN" {
			gotSSN = true
		}
	}
	if !gotSSN {
		t.Errorf("structure-rule baseline should derive SSN: %v", res.Facts)
	}
}

func TestConversionErrors(t *testing.T) {
	cat := storage.NewCatalog()
	d := dict.New(cat)
	m, err := ker.Parse(`
object type T
  has key: X domain: integer
  with if x isa T and x.X = 1 then x isa NOSUCH
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := baseline.FromModel(m, d, baseline.Options{IncludeStructureRules: true}); err == nil {
		t.Error("unknown subtype in conclusion should error")
	}
	m2, err := ker.Parse(`
object type T
  has key: X domain: integer
  with if x isa T and y.X = 1 then x isa T
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := baseline.FromModel(m2, d, baseline.Options{IncludeStructureRules: true}); err == nil {
		t.Error("undeclared role variable should error")
	}
}

func strVal(s string) relation.Value { return relation.String(s) }
