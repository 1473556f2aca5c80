package relation

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func classRelation(t *testing.T) *Relation {
	t.Helper()
	s := MustSchema(
		Column{Name: "Class", Type: TString},
		Column{Name: "Type", Type: TString},
		Column{Name: "Displacement", Type: TInt},
	)
	r := New("CLASS", s)
	r.MustInsert(String("0101"), String("SSBN"), Int(16600))
	r.MustInsert(String("0102"), String("SSBN"), Int(7250))
	r.MustInsert(String("0201"), String("SSN"), Int(6000))
	r.MustInsert(String("0204"), String("SSN"), Int(3640))
	r.MustInsert(String("1301"), String("SSBN"), Int(30000))
	return r
}

func TestSelectAndPredicates(t *testing.T) {
	r := classRelation(t)
	p, err := Cmp(r.Schema(), "Displacement", ">", Int(8000))
	if err != nil {
		t.Fatal(err)
	}
	got := r.Select(p)
	if got.Len() != 2 {
		t.Fatalf("Select(>8000) = %d rows, want 2", got.Len())
	}
	eq, err := Cmp(r.Schema(), "Type", "=", String("SSN"))
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Select(eq).Len(); n != 2 {
		t.Errorf("Select(Type=SSN) = %d rows, want 2", n)
	}
	if n := r.Select(func(t Tuple) bool { return !eq(t) }).Len(); n != 3 {
		t.Errorf("Select(not Type=SSN) = %d rows, want 3", n)
	}
}

func TestCmpOperators(t *testing.T) {
	r := classRelation(t)
	for _, c := range []struct {
		op   string
		want int
	}{
		{"=", 1}, {"!=", 4}, {"<>", 4}, {"<", 2}, {"<=", 3}, {">", 2}, {">=", 3},
	} {
		p, err := Cmp(r.Schema(), "Displacement", c.op, Int(7250))
		if err != nil {
			t.Fatal(err)
		}
		if n := r.Select(p).Len(); n != c.want {
			t.Errorf("op %q: %d rows, want %d", c.op, n, c.want)
		}
	}
	if _, err := Cmp(r.Schema(), "missing", "=", Int(0)); err == nil {
		t.Error("Cmp on missing column should error")
	}
}

func TestDelete(t *testing.T) {
	r := classRelation(t)
	eq, _ := Cmp(r.Schema(), "Type", "=", String("SSN"))
	if n := r.Delete(eq); n != 2 {
		t.Fatalf("Delete removed %d, want 2", n)
	}
	if r.Len() != 3 {
		t.Fatalf("Len after delete = %d, want 3", r.Len())
	}
}

func TestSortNullsFirst(t *testing.T) {
	rows := []Tuple{
		{String("a"), Int(2)},
		{String("b"), Null()},
		{String("c"), Int(1)},
		{String("d"), Null()},
		{String("e"), Int(2)},
	}
	order := func(desc bool) string {
		sorted := append([]Tuple(nil), rows...)
		sort.SliceStable(sorted, func(i, j int) bool {
			c := SortCompare(sorted[i][1], sorted[j][1])
			if desc {
				return c > 0
			}
			return c < 0
		})
		out := ""
		for _, r := range sorted {
			out += r[0].Str()
		}
		return out
	}
	// Nulls first (stable), then 1, 2, 2 (stable).
	if got := order(false); got != "bdcae" {
		t.Errorf("ascending = %s, want bdcae", got)
	}
	// Nulls last descending.
	if got := order(true); got != "aecbd" {
		t.Errorf("descending = %s, want aecbd", got)
	}
	for trial := 0; trial < 3; trial++ {
		if got := order(false); got != "bdcae" {
			t.Fatalf("trial %d: unstable null ordering: %s", trial, got)
		}
	}
}

func TestMinMax(t *testing.T) {
	r := classRelation(t)
	min, ok, err := r.Min("Displacement")
	if err != nil || !ok || !min.Equal(Int(3640)) {
		t.Errorf("Min = %v %v %v", min, ok, err)
	}
	max, ok, err := r.Max("Displacement")
	if err != nil || !ok || !max.Equal(Int(30000)) {
		t.Errorf("Max = %v %v %v", max, ok, err)
	}
	empty := New("E", r.Schema())
	if _, ok, _ := empty.Min("Displacement"); ok {
		t.Error("Min of empty relation should report !ok")
	}
	if _, _, err := r.Min("missing"); err == nil {
		t.Error("Min on missing column should error")
	}
}

// Property: Select(p) ∪ Select(not p) is a permutation of the input.
func TestSelectPartitionProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		s := MustSchema(Column{Name: "A", Type: TInt})
		r := New("R", s)
		for i := 0; i < rr.Intn(50); i++ {
			r.MustInsert(Int(int64(rr.Intn(100))))
		}
		p, err := Cmp(s, "A", "<", Int(50))
		if err != nil {
			return false
		}
		return r.Select(p).Len()+r.Select(func(t Tuple) bool { return !p(t) }).Len() == r.Len()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
