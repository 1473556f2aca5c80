package quel

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"intensional/internal/relation"
	"intensional/internal/storage"
)

func dmlCatalog(t *testing.T) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	r, err := cat.Create("EMP", relation.MustSchema(
		relation.Column{Name: "Id", Type: relation.TInt},
		relation.Column{Name: "Name", Type: relation.TString},
		relation.Column{Name: "Age", Type: relation.TInt},
		relation.Column{Name: "Dept", Type: relation.TString},
	))
	if err != nil {
		t.Fatal(err)
	}
	r.MustInsert(relation.Int(1), relation.String("Ann"), relation.Int(30), relation.String("eng"))
	r.MustInsert(relation.Int(2), relation.String("Bob"), relation.Int(45), relation.String("ops"))
	return cat
}

func TestAppend(t *testing.T) {
	cat := dmlCatalog(t)
	s := NewSession(NewPlanner(cat, nil))
	res := mustExec(t, s, `append to EMP (Id = 3, Name = "Carol", Age = 28, Dept = eng)`)
	if res.Appended != 1 {
		t.Fatalf("appended = %d", res.Appended)
	}
	r, _ := cat.Get("EMP")
	if r.Len() != 3 {
		t.Fatalf("rows = %d", r.Len())
	}
	row := r.Row(2)
	if row[1].Str() != "Carol" || row[2].Int64() != 28 || row[3].Str() != "eng" {
		t.Errorf("appended row = %v", row)
	}
}

func TestAppendPartialAssignsNull(t *testing.T) {
	cat := dmlCatalog(t)
	s := NewSession(NewPlanner(cat, nil))
	mustExec(t, s, `append to EMP (Id = 9)`)
	r, _ := cat.Get("EMP")
	row := r.Row(2)
	if !row[1].IsNull() || !row[2].IsNull() {
		t.Errorf("unassigned columns should be null: %v", row)
	}
}

func TestAppendCoercesBareNumbers(t *testing.T) {
	cat := dmlCatalog(t)
	s := NewSession(NewPlanner(cat, nil))
	// A quoted number still coerces into an int column.
	mustExec(t, s, `append to EMP (Id = "7", Age = 50)`)
	r, _ := cat.Get("EMP")
	if r.Row(2)[0].Int64() != 7 {
		t.Errorf("coerced id = %v", r.Row(2)[0])
	}
}

func TestAppendErrors(t *testing.T) {
	s := NewSession(NewPlanner(dmlCatalog(t), nil))
	bad := []string{
		`append to NOPE (Id = 1)`,
		`append to EMP (Nope = 1)`,
		`append to EMP (Id = xyz)`,  // unparseable for int column
		`append to EMP (Id = e.Id)`, // column operand without context
		`append to EMP Id = 1`,      // missing parens
		`append EMP (Id = 1)`,       // missing "to"
		`append to EMP (Id 1)`,      // missing =
	}
	for _, src := range bad {
		if _, err := s.Exec(src); err == nil {
			t.Errorf("Exec(%q): expected error", src)
		}
	}
}

func TestReplaceQualified(t *testing.T) {
	cat := dmlCatalog(t)
	s := NewSession(NewPlanner(cat, nil))
	mustExec(t, s, "range of e is EMP")
	res := mustExec(t, s, `replace e (Dept = "platform") where e.Dept = "eng"`)
	if res.Replaced != 1 {
		t.Fatalf("replaced = %d", res.Replaced)
	}
	r, _ := cat.Get("EMP")
	if r.Row(0)[3].Str() != "platform" || r.Row(1)[3].Str() != "ops" {
		t.Errorf("rows = %v / %v", r.Row(0), r.Row(1))
	}
}

func TestReplaceUnqualifiedTouchesAll(t *testing.T) {
	cat := dmlCatalog(t)
	s := NewSession(NewPlanner(cat, nil))
	mustExec(t, s, "range of e is EMP")
	res := mustExec(t, s, `replace e (Age = 21)`)
	if res.Replaced != 2 {
		t.Fatalf("replaced = %d", res.Replaced)
	}
	r, _ := cat.Get("EMP")
	for _, row := range r.Rows() {
		if row[2].Int64() != 21 {
			t.Errorf("row = %v", row)
		}
	}
}

func TestReplaceFromOtherVariable(t *testing.T) {
	cat := dmlCatalog(t)
	grades, err := cat.Create("GRADES", relation.MustSchema(
		relation.Column{Name: "Dept", Type: relation.TString},
		relation.Column{Name: "Level", Type: relation.TInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	grades.MustInsert(relation.String("eng"), relation.Int(5))
	grades.MustInsert(relation.String("ops"), relation.Int(3))

	s := NewSession(NewPlanner(cat, nil))
	mustExec(t, s, "range of e is EMP")
	mustExec(t, s, "range of g is GRADES")
	// Copy each employee's department level into Age (a contrived but
	// structural cross-variable update).
	res := mustExec(t, s, `replace e (Age = g.Level) where e.Dept = g.Dept`)
	if res.Replaced != 2 {
		t.Fatalf("replaced = %d", res.Replaced)
	}
	r, _ := cat.Get("EMP")
	if r.Row(0)[2].Int64() != 5 || r.Row(1)[2].Int64() != 3 {
		t.Errorf("rows = %v / %v", r.Row(0), r.Row(1))
	}
}

func TestReplaceErrors(t *testing.T) {
	s := NewSession(NewPlanner(dmlCatalog(t), nil))
	mustExec(t, s, "range of e is EMP")
	bad := []string{
		`replace x (Age = 1)`,            // undeclared variable
		`replace e (Nope = 1)`,           // unknown attribute
		`replace e (Age = "notanumber")`, // uncoercible
		`replace e Age = 1`,              // missing parens
	}
	for _, src := range bad {
		if _, err := s.Exec(src); err == nil {
			t.Errorf("Exec(%q): expected error", src)
		}
	}
}

func TestRelationSet(t *testing.T) {
	r := relation.New("R", relation.MustSchema(
		relation.Column{Name: "A", Type: relation.TInt},
	))
	r.MustInsert(relation.Int(1))
	if err := r.Set(0, 0, relation.Int(2)); err != nil {
		t.Fatal(err)
	}
	if r.Row(0)[0].Int64() != 2 {
		t.Errorf("row = %v", r.Row(0))
	}
	if err := r.Set(5, 0, relation.Int(1)); err == nil {
		t.Error("row out of range should error")
	}
	if err := r.Set(0, 5, relation.Int(1)); err == nil {
		t.Error("column out of range should error")
	}
	if err := r.Set(0, 0, relation.String("x")); err == nil {
		t.Error("kind mismatch should error")
	}
}

// image renders a relation's rows and version, for asserting that a
// failed statement left it byte-identical.
func image(r *relation.Relation) string {
	return fmt.Sprintf("v%d\n%s", r.Version(), r)
}

// TestReplaceCoercionFailureWritesNothing: a replace whose value from a
// joined variable cannot be coerced for a later row must fail without
// having changed an earlier one — every new value is computed before
// any is written.
func TestReplaceCoercionFailureWritesNothing(t *testing.T) {
	cat := dmlCatalog(t)
	src, err := cat.Create("SRC", relation.MustSchema(
		relation.Column{Name: "Id", Type: relation.TInt},
		relation.Column{Name: "Val", Type: relation.TString},
	))
	if err != nil {
		t.Fatal(err)
	}
	src.MustInsert(relation.Int(1), relation.String("31"))
	src.MustInsert(relation.Int(2), relation.String("oops"))

	s := NewSession(NewPlanner(cat, nil))
	mustExec(t, s, "range of e is EMP")
	mustExec(t, s, "range of v is SRC")
	emp, _ := cat.Get("EMP")
	before := image(emp)
	if _, err := s.Exec(`replace e (Age = v.Val) where e.Id = v.Id`); err == nil {
		t.Fatal("uncoercible value: expected an error")
	}
	if after := image(emp); after != before {
		t.Errorf("failed replace changed the relation:\nbefore %s\nafter %s", before, after)
	}
}

// TestReplaceReadsPreImage: a replace over two variables ranging the
// same relation reads the values the statement started with, not the
// ones it has written so far — the two ages swap rather than smear.
func TestReplaceReadsPreImage(t *testing.T) {
	cat := dmlCatalog(t)
	s := NewSession(NewPlanner(cat, nil))
	mustExec(t, s, "range of e is EMP")
	mustExec(t, s, "range of f is EMP")
	res := mustExec(t, s, `replace e (Age = f.Age) where e.Id != f.Id`)
	if res.Replaced != 2 {
		t.Fatalf("replaced = %d, want 2", res.Replaced)
	}
	r, _ := cat.Get("EMP")
	if a, b := r.Row(0)[2].Int64(), r.Row(1)[2].Int64(); a != 45 || b != 30 {
		t.Errorf("ages = %d/%d, want 45/30", a, b)
	}
}

// TestDMLTreatsDuplicateRowsAlike: a qualification is value-based, so
// rows with equal values are selected — or spared — together, whether
// the qualification is a selection or a join.
func TestDMLTreatsDuplicateRowsAlike(t *testing.T) {
	cat := dmlCatalog(t)
	emp, _ := cat.Get("EMP")
	emp.MustInsert(relation.Int(1), relation.String("Ann"), relation.Int(30), relation.String("eng"))
	depts, err := cat.Create("DEPTS", relation.MustSchema(
		relation.Column{Name: "Dept", Type: relation.TString},
	))
	if err != nil {
		t.Fatal(err)
	}
	depts.MustInsert(relation.String("platform"))
	depts.MustInsert(relation.String("platform"))

	s := NewSession(NewPlanner(cat, nil))
	mustExec(t, s, "range of e is EMP")
	mustExec(t, s, "range of d is DEPTS")
	if res := mustExec(t, s, `replace e (Dept = "platform") where e.Id = 1`); res.Replaced != 2 {
		t.Fatalf("replaced = %d, want both duplicates", res.Replaced)
	}
	if emp.Row(0)[3].Str() != "platform" || emp.Row(2)[3].Str() != "platform" || emp.Row(1)[3].Str() != "ops" {
		t.Fatalf("after replace: %s", emp)
	}
	if res := mustExec(t, s, `delete e where e.Dept = d.Dept`); res.Deleted != 2 {
		t.Fatalf("deleted = %d, want both duplicates", res.Deleted)
	}
	if emp.Len() != 1 || emp.Row(0)[1].Str() != "Bob" {
		t.Errorf("after delete: %s", emp)
	}
}

// cancelAfter is a context whose Err starts reporting Canceled after a
// fixed number of checks — a deterministic stand-in for a caller that
// cancels while the pipeline is between batches.
type cancelAfter struct {
	context.Context
	budget *int
}

func (c cancelAfter) Err() error {
	if *c.budget <= 0 {
		return context.Canceled
	}
	*c.budget--
	return nil
}

// TestDMLCancellation: delete and replace consult the context only
// while evaluating the qualification. Cancelled there, the statement
// returns context.Canceled with nothing written; past that point it is
// applied whole even though the context has by then expired.
func TestDMLCancellation(t *testing.T) {
	const n = 3 * 256 // several executor batches
	for _, c := range []struct {
		stmt    string
		applied func(*relation.Relation) bool
	}{
		{`delete b where b.G = 0`, func(r *relation.Relation) bool {
			for _, row := range r.Rows() {
				if row[1].Int64() == 0 {
					return false
				}
			}
			return r.Len() < n
		}},
		{`replace b (G = 9) where b.G = 0`, func(r *relation.Relation) bool {
			nines := 0
			for _, row := range r.Rows() {
				if row[1].Int64() == 0 {
					return false
				}
				if row[1].Int64() == 9 {
					nines++
				}
			}
			return nines > 0
		}},
	} {
		cancelled, completed := 0, 0
		for budget := 0; completed == 0; budget++ {
			if budget > 100 {
				t.Fatalf("%s: still cancelled after %d context checks", c.stmt, budget)
			}
			cat := bigCatalog(t, n)
			s := NewSession(NewPlanner(cat, nil))
			mustExec(t, s, "range of b is BIG")
			rel, _ := cat.Get("BIG")
			before := image(rel)
			left := budget
			_, err := s.ExecContext(cancelAfter{context.Background(), &left}, c.stmt)
			switch {
			case errors.Is(err, context.Canceled):
				cancelled++
				if after := image(rel); after != before {
					t.Fatalf("%s: cancelled after %d checks yet the relation changed", c.stmt, budget)
				}
			case err != nil:
				t.Fatalf("%s: %v", c.stmt, err)
			default:
				completed++
				if left != 0 {
					t.Errorf("%s: context not yet expired when the statement was applied (budget %d)", c.stmt, budget)
				}
				if !c.applied(rel) {
					t.Errorf("%s: half-applied after %d context checks", c.stmt, budget)
				}
			}
		}
		if cancelled == 0 {
			t.Errorf("%s: no budget cancelled the qualification", c.stmt)
		}
	}
}

// TestUnknownOperatorIsAPlanError: an operator the comparison table
// does not know (only reachable through a hand-built AST) fails when
// the statement is planned, for retrieve and DML alike, instead of
// compiling to a predicate that is false on every row.
func TestUnknownOperatorIsAPlanError(t *testing.T) {
	s := NewSession(NewPlanner(dmlCatalog(t), nil))
	mustExec(t, s, "range of e is EMP")
	where := &BinExpr{Op: "~", L: ColOperand{Col: ColRef{Var: "e", Attr: "Id"}}, R: ConstOperand{Val: relation.Int(1)}}
	for _, st := range []Stmt{
		&RetrieveStmt{Target: []Target{{Col: ColRef{Var: "e", Attr: "Id"}}}, Where: where},
		&DeleteStmt{Var: "e", Where: where},
		&ReplaceStmt{Var: "e", Assign: []Assign{{Attr: "Age", Val: ConstOperand{Val: relation.Int(1)}}}, Where: where},
	} {
		if _, err := s.ExecStmt(st); err == nil {
			t.Errorf("%T with operator ~: expected an error", st)
		}
	}
}
