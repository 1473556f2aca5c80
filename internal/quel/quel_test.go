package quel

import (
	"strings"
	"testing"

	"intensional/internal/relation"
	"intensional/internal/storage"
)

// testCatalog builds a small two-relation catalog mirroring the shapes the
// induction algorithm works over.
func testCatalog(t *testing.T) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	cls, err := cat.Create("CLASS", relation.MustSchema(
		relation.Column{Name: "Class", Type: relation.TString},
		relation.Column{Name: "Type", Type: relation.TString},
		relation.Column{Name: "Displacement", Type: relation.TInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	cls.MustInsert(relation.String("0101"), relation.String("SSBN"), relation.Int(16600))
	cls.MustInsert(relation.String("0102"), relation.String("SSBN"), relation.Int(7250))
	cls.MustInsert(relation.String("0201"), relation.String("SSN"), relation.Int(6000))
	cls.MustInsert(relation.String("0204"), relation.String("SSN"), relation.Int(3640))
	cls.MustInsert(relation.String("1301"), relation.String("SSBN"), relation.Int(30000))

	sub, err := cat.Create("SUBMARINE", relation.MustSchema(
		relation.Column{Name: "Id", Type: relation.TString},
		relation.Column{Name: "Name", Type: relation.TString},
		relation.Column{Name: "Class", Type: relation.TString},
	))
	if err != nil {
		t.Fatal(err)
	}
	sub.MustInsert(relation.String("SSBN730"), relation.String("Rhode Island"), relation.String("0101"))
	sub.MustInsert(relation.String("SSBN130"), relation.String("Typhoon"), relation.String("1301"))
	sub.MustInsert(relation.String("SSN692"), relation.String("Omaha"), relation.String("0201"))
	sub.MustInsert(relation.String("SSN648"), relation.String("Aspro"), relation.String("0204"))
	return cat
}

func mustExec(t *testing.T, s *Session, src string) *Result {
	t.Helper()
	res, err := s.Exec(src)
	if err != nil {
		t.Fatalf("Exec(%q): %v", src, err)
	}
	return res
}

func TestRangeAndRetrieve(t *testing.T) {
	s := NewSession(NewPlanner(testCatalog(t), nil, nil))
	mustExec(t, s, "range of c is CLASS")
	res := mustExec(t, s, "retrieve (c.Class, c.Type)")
	if res.Rel.Len() != 5 {
		t.Fatalf("retrieve all = %d rows", res.Rel.Len())
	}
	if got := res.Rel.Schema().Names(); got[0] != "Class" || got[1] != "Type" {
		t.Errorf("output columns = %v", got)
	}
}

func TestRetrieveWhere(t *testing.T) {
	s := NewSession(NewPlanner(testCatalog(t), nil, nil))
	mustExec(t, s, "range of c is CLASS")
	res := mustExec(t, s, `retrieve (c.Class) where c.Displacement > 8000`)
	if res.Rel.Len() != 2 {
		t.Fatalf("where > 8000 = %d rows:\n%s", res.Rel.Len(), res.Rel)
	}
	res = mustExec(t, s, `retrieve (c.Class) where c.Type = "SSBN" and c.Displacement < 20000`)
	if res.Rel.Len() != 2 {
		t.Fatalf("conjunction = %d rows", res.Rel.Len())
	}
	res = mustExec(t, s, `retrieve (c.Class) where c.Type = "SSN" or c.Displacement >= 30000`)
	if res.Rel.Len() != 3 {
		t.Fatalf("disjunction = %d rows", res.Rel.Len())
	}
	res = mustExec(t, s, `retrieve (c.Class) where not (c.Type = "SSN")`)
	if res.Rel.Len() != 3 {
		t.Fatalf("negation = %d rows", res.Rel.Len())
	}
}

func TestRetrieveUniqueSort(t *testing.T) {
	s := NewSession(NewPlanner(testCatalog(t), nil, nil))
	mustExec(t, s, "range of c is CLASS")
	res := mustExec(t, s, "retrieve unique (c.Type) sort by c.Type")
	if res.Rel.Len() != 2 {
		t.Fatalf("unique = %d rows", res.Rel.Len())
	}
	if res.Rel.Row(0)[0].Str() != "SSBN" || res.Rel.Row(1)[0].Str() != "SSN" {
		t.Errorf("sorted rows: %v %v", res.Rel.Row(0), res.Rel.Row(1))
	}
}

// TestInductionStep1 executes the paper's step-1 statement verbatim:
// retrieve into S unique (r.Y, r.X) sort by r.Y.
func TestInductionStep1(t *testing.T) {
	cat := testCatalog(t)
	s := NewSession(NewPlanner(cat, nil, nil))
	mustExec(t, s, "range of r is CLASS")
	res := mustExec(t, s, "retrieve into S unique (r.Type, r.Displacement) sort by r.Type")
	if !cat.Has("S") {
		t.Fatal("retrieve into should create S in the catalog")
	}
	if res.Rel.Len() != 5 {
		t.Fatalf("S = %d rows", res.Rel.Len())
	}
	if res.Rel.Row(0)[0].Str() != "SSBN" {
		t.Errorf("first row after sort: %v", res.Rel.Row(0))
	}
	if _, err := s.Exec("retrieve into S unique (r.Type) "); err == nil {
		t.Error("retrieve into an existing relation should error")
	}
}

// TestInductionStep2And3 runs the inconsistency removal join and the
// existential delete of the paper's algorithm.
func TestInductionStep2And3(t *testing.T) {
	cat := storage.NewCatalog()
	rel, err := cat.Create("REL", relation.MustSchema(
		relation.Column{Name: "X", Type: relation.TInt},
		relation.Column{Name: "Y", Type: relation.TString},
	))
	if err != nil {
		t.Fatal(err)
	}
	// X=1 maps consistently to a; X=2 maps to both a and b (inconsistent).
	rel.MustInsert(relation.Int(1), relation.String("a"))
	rel.MustInsert(relation.Int(2), relation.String("a"))
	rel.MustInsert(relation.Int(2), relation.String("b"))

	s := NewSession(NewPlanner(cat, nil, nil))
	mustExec(t, s, "range of r is REL")
	mustExec(t, s, "retrieve into S unique (r.Y, r.X) sort by r.Y")
	mustExec(t, s, "range of s is S")
	mustExec(t, s, "retrieve into T unique (s.Y, s.X) where (r.X = s.X and r.Y != s.Y)")
	tRel, err := cat.Get("T")
	if err != nil {
		t.Fatal(err)
	}
	if tRel.Len() != 2 {
		t.Fatalf("T should hold both inconsistent pairs, got %d:\n%s", tRel.Len(), tRel)
	}
	mustExec(t, s, "range of t is T")
	res := mustExec(t, s, "delete s where (s.X = t.X and s.Y = t.Y)")
	if res.Deleted != 2 {
		t.Fatalf("delete removed %d, want 2", res.Deleted)
	}
	sRel, err := cat.Get("S")
	if err != nil {
		t.Fatal(err)
	}
	if sRel.Len() != 1 || !sRel.Row(0)[1].Equal(relation.Int(1)) {
		t.Fatalf("S after delete:\n%s", sRel)
	}
}

func TestJoinAcrossRelations(t *testing.T) {
	s := NewSession(NewPlanner(testCatalog(t), nil, nil))
	mustExec(t, s, "range of sub is SUBMARINE")
	mustExec(t, s, "range of c is CLASS")
	res := mustExec(t, s, `retrieve (sub.Name, c.Type) where sub.Class = c.Class and c.Displacement > 8000`)
	if res.Rel.Len() != 2 {
		t.Fatalf("join = %d rows:\n%s", res.Rel.Len(), res.Rel)
	}
	for _, row := range res.Rel.Rows() {
		if row[1].Str() != "SSBN" {
			t.Errorf("unexpected row %v", row)
		}
	}
}

func TestCrossProductWhenNoEdge(t *testing.T) {
	s := NewSession(NewPlanner(testCatalog(t), nil, nil))
	mustExec(t, s, "range of sub is SUBMARINE")
	mustExec(t, s, "range of c is CLASS")
	res := mustExec(t, s, "retrieve (sub.Id, c.Class)")
	if res.Rel.Len() != 4*5 {
		t.Fatalf("cross product = %d rows, want 20", res.Rel.Len())
	}
}

func TestTargetRenameAndCollision(t *testing.T) {
	s := NewSession(NewPlanner(testCatalog(t), nil, nil))
	mustExec(t, s, "range of sub is SUBMARINE")
	mustExec(t, s, "range of c is CLASS")
	res := mustExec(t, s, "retrieve (ShipClass = sub.Class, c.Class) where sub.Class = c.Class")
	names := res.Rel.Schema().Names()
	if names[0] != "ShipClass" || names[1] != "Class" {
		t.Errorf("renamed columns = %v", names)
	}
	res = mustExec(t, s, "retrieve (sub.Class, c.Class) where sub.Class = c.Class")
	names = res.Rel.Schema().Names()
	if names[0] != "Class" || names[1] != "c.Class" {
		t.Errorf("collision-qualified columns = %v", names)
	}
}

func TestDeleteSingleVariable(t *testing.T) {
	cat := testCatalog(t)
	s := NewSession(NewPlanner(cat, nil, nil))
	mustExec(t, s, "range of c is CLASS")
	res := mustExec(t, s, `delete c where c.Type = "SSN"`)
	if res.Deleted != 2 {
		t.Fatalf("deleted %d, want 2", res.Deleted)
	}
	cls, _ := cat.Get("CLASS")
	if cls.Len() != 3 {
		t.Fatalf("CLASS has %d rows after delete", cls.Len())
	}
	res = mustExec(t, s, "delete c")
	if res.Deleted != 3 {
		t.Fatalf("unqualified delete removed %d", res.Deleted)
	}
}

func TestQuotedAndBareConstants(t *testing.T) {
	cat := storage.NewCatalog()
	r, err := cat.Create("SONAR", relation.MustSchema(
		relation.Column{Name: "Sonar", Type: relation.TString},
	))
	if err != nil {
		t.Fatal(err)
	}
	r.MustInsert(relation.String("BQS-04"))
	r.MustInsert(relation.String("BQQ-2"))
	s := NewSession(NewPlanner(cat, nil, nil))
	mustExec(t, s, "range of x is SONAR")
	res := mustExec(t, s, `retrieve (x.Sonar) where x.Sonar = "BQS-04"`)
	if res.Rel.Len() != 1 {
		t.Fatalf("quoted constant: %d rows", res.Rel.Len())
	}
	res = mustExec(t, s, `retrieve (x.Sonar) where x.Sonar = BQS-04`)
	if res.Rel.Len() != 1 {
		t.Fatalf("bare constant: %d rows", res.Rel.Len())
	}
}

func TestErrors(t *testing.T) {
	s := NewSession(NewPlanner(testCatalog(t), nil, nil))
	bad := []string{
		"range of x is NOPE",                 // unknown relation
		"retrieve (x.Class)",                 // undeclared variable
		"frobnicate (x.y)",                   // unknown statement
		"retrieve (c.Class",                  // unbalanced paren
		"retrieve (c.Class) where c.Class <", // missing operand
		"retrieve (c.Class) sort by c.Type",  // sort column not retrieved (declared below)
		"retrieve (c.Nope)",                  // unknown attribute
		"delete",                             // missing variable
		`retrieve (c.Class) where c.Class ! 3`,
	}
	mustExec(t, s, "range of c is CLASS")
	for _, src := range bad {
		if _, err := s.Exec(src); err == nil {
			t.Errorf("Exec(%q): expected error", src)
		}
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{`retrieve (c.Class) where c.Class = "unterminated`, "retrieve (c.Class) @"} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestExprString(t *testing.T) {
	st, err := Parse(`retrieve (c.Class) where (c.Type = "SSBN" or c.Displacement > 100) and not (c.Class = "1301")`)
	if err != nil {
		t.Fatal(err)
	}
	ret := st.(*RetrieveStmt)
	got := ret.Where.String()
	for _, want := range []string{"or", "and", "not", "c.Type", `"SSBN"`} {
		if !strings.Contains(got, want) {
			t.Errorf("Where.String() = %q missing %q", got, want)
		}
	}
}

func TestNumericConstants(t *testing.T) {
	cat := storage.NewCatalog()
	r, err := cat.Create("M", relation.MustSchema(
		relation.Column{Name: "N", Type: relation.TInt},
		relation.Column{Name: "F", Type: relation.TFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	r.MustInsert(relation.Int(-5), relation.Float(1.5))
	r.MustInsert(relation.Int(10), relation.Float(2.5))
	s := NewSession(NewPlanner(cat, nil, nil))
	mustExec(t, s, "range of m is M")
	if res := mustExec(t, s, "retrieve (m.N) where m.N = -5"); res.Rel.Len() != 1 {
		t.Error("negative int constant")
	}
	if res := mustExec(t, s, "retrieve (m.N) where m.F >= 2.5"); res.Rel.Len() != 1 {
		t.Error("float constant")
	}
}
