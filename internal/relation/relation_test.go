package relation

import (
	"strings"
	"testing"
)

func subSchema(t *testing.T) *Schema {
	t.Helper()
	return MustSchema(
		Column{Name: "Id", Type: TString},
		Column{Name: "Name", Type: TString},
		Column{Name: "Class", Type: TString},
	)
}

func TestSchemaBasics(t *testing.T) {
	s := subSchema(t)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if i, ok := s.Index("class"); !ok || i != 2 {
		t.Errorf("Index(class) = %d,%v; want 2,true (case-insensitive)", i, ok)
	}
	if _, ok := s.Index("nope"); ok {
		t.Error("Index(nope) should be absent")
	}
	if got := s.String(); got != "(Id string, Name string, Class string)" {
		t.Errorf("String() = %q", got)
	}
}

func TestSchemaDuplicateAndEmpty(t *testing.T) {
	if _, err := NewSchema(Column{Name: "A"}, Column{Name: "a"}); err == nil {
		t.Error("duplicate (case-insensitive) column should error")
	}
	if _, err := NewSchema(Column{Name: ""}); err == nil {
		t.Error("empty column name should error")
	}
}

func TestSchemaEqual(t *testing.T) {
	s := subSchema(t)
	s2 := MustSchema(
		Column{Name: "id", Type: TString},
		Column{Name: "NAME", Type: TString},
		Column{Name: "Class", Type: TString},
	)
	if !s.Equal(s2) {
		t.Error("schemas differing only in case should be Equal")
	}
}

func TestInsertTypeChecking(t *testing.T) {
	r := New("SUBMARINE", subSchema(t))
	if err := r.Insert(Tuple{String("SSBN730"), String("Rhode Island"), String("0101")}); err != nil {
		t.Fatal(err)
	}
	if err := r.Insert(Tuple{String("x"), String("y")}); err == nil {
		t.Error("arity mismatch should error")
	}
	if err := r.Insert(Tuple{Int(1), String("y"), String("z")}); err == nil {
		t.Error("kind mismatch should error")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1 (failed inserts must not append)", r.Len())
	}
}

func TestInsertStrings(t *testing.T) {
	s := MustSchema(Column{Name: "Class", Type: TString}, Column{Name: "Displacement", Type: TInt})
	r := New("CLASS", s)
	if err := r.InsertStrings("0101", "16600"); err != nil {
		t.Fatal(err)
	}
	if err := r.InsertStrings("0101", "not-a-number"); err == nil {
		t.Error("unparseable field should error")
	}
	if err := r.InsertStrings("one-field"); err == nil {
		t.Error("arity mismatch should error")
	}
	if got := r.Row(0)[1]; !got.Equal(Int(16600)) {
		t.Errorf("parsed value = %#v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	r := New("R", subSchema(t))
	r.MustInsert(String("a"), String("b"), String("c"))
	c := r.Clone()
	c.Row(0)[0] = String("mutated")
	if r.Row(0)[0].Str() != "a" {
		t.Error("Clone rows must be independent")
	}
}

func TestColumn(t *testing.T) {
	r := New("R", subSchema(t))
	r.MustInsert(String("a1"), String("b1"), String("c1"))
	r.MustInsert(String("a2"), String("b2"), String("c2"))
	vals, err := r.Column("Name")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 || vals[0].Str() != "b1" || vals[1].Str() != "b2" {
		t.Errorf("Column = %v", vals)
	}
	if _, err := r.Column("missing"); err == nil {
		t.Error("missing column should error")
	}
}

func TestRelationStringTable(t *testing.T) {
	r := New("R", MustSchema(Column{Name: "id", Type: TString}, Column{Name: "n", Type: TInt}))
	r.MustInsert(String("abc"), Int(42))
	out := r.String()
	for _, want := range []string{"| id ", "| abc", "| 42", "+----"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestTupleKeyDistinguishes(t *testing.T) {
	a := Tuple{String("ab"), String("c")}
	b := Tuple{String("a"), String("bc")}
	if a.Key() == b.Key() {
		t.Error("keys of (ab,c) and (a,bc) must differ")
	}
}
