package relation

import (
	"fmt"
	"math/rand"
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
	eq, err := Eq(r.Schema(), "Type", String("SSN"))
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Select(eq).Len(); n != 2 {
		t.Errorf("Select(Type=SSN) = %d rows, want 2", n)
	}
	if n := r.Select(And(p, eq)).Len(); n != 0 {
		t.Errorf("And: %d rows, want 0", n)
	}
	if n := r.Select(Or(p, eq)).Len(); n != 4 {
		t.Errorf("Or: %d rows, want 4", n)
	}
	if n := r.Select(Not(eq)).Len(); n != 3 {
		t.Errorf("Not: %d rows, want 3", n)
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

func TestProjectUnique(t *testing.T) {
	r := classRelation(t)
	p, err := r.Project("Type")
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 5 {
		t.Fatalf("Project keeps duplicates: %d", p.Len())
	}
	u := p.Unique()
	if u.Len() != 2 {
		t.Fatalf("Unique = %d rows, want 2", u.Len())
	}
}

func TestSort(t *testing.T) {
	r := classRelation(t)
	s, err := r.Sort(SortKey{Column: "Displacement"})
	if err != nil {
		t.Fatal(err)
	}
	prev := int64(-1)
	for _, row := range s.Rows() {
		d := row[2].Int64()
		if d < prev {
			t.Fatalf("not sorted: %d after %d", d, prev)
		}
		prev = d
	}
	desc, err := r.Sort(SortKey{Column: "Type"}, SortKey{Column: "Displacement", Desc: true})
	if err != nil {
		t.Fatal(err)
	}
	if desc.Row(0)[0].Str() != "1301" {
		t.Errorf("multi-key sort: first row %v", desc.Row(0))
	}
	if _, err := r.Sort(SortKey{Column: "missing"}); err == nil {
		t.Error("sort on missing column should error")
	}
}

func TestDelete(t *testing.T) {
	r := classRelation(t)
	eq, _ := Eq(r.Schema(), "Type", String("SSN"))
	if n := r.Delete(eq); n != 2 {
		t.Fatalf("Delete removed %d, want 2", n)
	}
	if r.Len() != 3 {
		t.Fatalf("Len after delete = %d, want 3", r.Len())
	}
}

// TestDeleteAfterRenameColumns is the regression test for the in-place
// Delete compaction: the renamed view shares tuples with the original,
// and deleting from the original must not shuffle the view's rows.
func TestDeleteAfterRenameColumns(t *testing.T) {
	r := classRelation(t)
	view, err := r.RenameColumns(func(c string) string { return "CLASS." + c })
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, view.Len())
	for i, row := range view.Rows() {
		want[i] = row.Key()
	}

	eq, _ := Eq(r.Schema(), "Type", String("SSBN"))
	if n := r.Delete(eq); n != 3 {
		t.Fatalf("Delete removed %d, want 3", n)
	}
	if view.Len() != len(want) {
		t.Fatalf("view length changed: %d, want %d", view.Len(), len(want))
	}
	for i, row := range view.Rows() {
		if row.Key() != want[i] {
			t.Errorf("view row %d corrupted by Delete: %v", i, row)
		}
	}

	// And the other direction: WithName views survive deletes too.
	r2 := classRelation(t)
	named := r2.WithName("COPY")
	if r2.Delete(func(Tuple) bool { return true }) != 5 {
		t.Fatal("expected full delete")
	}
	if named.Len() != 5 || named.Row(0)[0].Str() != "0101" {
		t.Errorf("WithName view corrupted: len=%d first=%v", named.Len(), named.Row(0))
	}
}

// TestSetAfterViewIsInvisible pins the copy-on-write contract: replacing
// a cell in the original never shows through a shallow copy.
func TestSetAfterViewIsInvisible(t *testing.T) {
	r := classRelation(t)
	view := r.WithName("COPY")
	if err := r.Set(0, 2, Int(99)); err != nil {
		t.Fatal(err)
	}
	if got := view.Row(0)[2].Int64(); got != 16600 {
		t.Errorf("view observed Set through shared storage: %d", got)
	}
	if got := r.Row(0)[2].Int64(); got != 99 {
		t.Errorf("Set lost: %d", got)
	}
}

// TestSortNullsFirst checks the deterministic null ordering: nulls sort
// before every value ascending, after every value descending, and the
// result is stable and reproducible across repeated sorts.
func TestSortNullsFirst(t *testing.T) {
	s := MustSchema(
		Column{Name: "Tag", Type: TString},
		Column{Name: "N", Type: TInt},
	)
	r := New("R", s)
	r.MustInsert(String("a"), Int(2))
	r.MustInsert(String("b"), Null())
	r.MustInsert(String("c"), Int(1))
	r.MustInsert(String("d"), Null())
	r.MustInsert(String("e"), Int(2))

	asc, err := r.Sort(SortKey{Column: "N"})
	if err != nil {
		t.Fatal(err)
	}
	wantAsc := []string{"b", "d", "c", "a", "e"} // nulls first (stable), then 1, 2, 2 (stable)
	for i, w := range wantAsc {
		if got := asc.Row(i)[0].Str(); got != w {
			t.Fatalf("asc row %d = %s, want %s (full: %v)", i, got, w, asc.Rows())
		}
	}
	desc, err := r.Sort(SortKey{Column: "N", Desc: true})
	if err != nil {
		t.Fatal(err)
	}
	wantDesc := []string{"a", "e", "c", "b", "d"} // nulls last descending
	for i, w := range wantDesc {
		if got := desc.Row(i)[0].Str(); got != w {
			t.Fatalf("desc row %d = %s, want %s (full: %v)", i, got, w, desc.Rows())
		}
	}
	// Reproducible: sorting again (or sorting the sorted output) yields
	// the identical order.
	for trial := 0; trial < 3; trial++ {
		again, err := r.Sort(SortKey{Column: "N"})
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantAsc {
			if again.Row(i)[0].Str() != wantAsc[i] {
				t.Fatalf("trial %d: unstable null ordering: %v", trial, again.Rows())
			}
		}
	}
}

func TestUnionDiff(t *testing.T) {
	r := classRelation(t)
	ssn := r.Select(func(t Tuple) bool { return t[1].Str() == "SSN" })
	ssbn := r.Select(func(t Tuple) bool { return t[1].Str() == "SSBN" })
	u, err := ssn.Union(ssbn)
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != r.Len() {
		t.Errorf("union = %d rows, want %d", u.Len(), r.Len())
	}
	d, err := r.Diff(ssn)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != ssbn.Len() {
		t.Errorf("diff = %d rows, want %d", d.Len(), ssbn.Len())
	}
	other := New("X", MustSchema(Column{Name: "A", Type: TInt}))
	if _, err := r.Union(other); err == nil {
		t.Error("union with mismatched schema should error")
	}
	if _, err := r.Diff(other); err == nil {
		t.Error("diff with mismatched schema should error")
	}
}

func submarineRelation(t *testing.T) *Relation {
	t.Helper()
	s := MustSchema(
		Column{Name: "Id", Type: TString},
		Column{Name: "Name", Type: TString},
		Column{Name: "Class", Type: TString},
	)
	r := New("SUBMARINE", s)
	r.MustInsert(String("SSBN730"), String("Rhode Island"), String("0101"))
	r.MustInsert(String("SSBN130"), String("Typhoon"), String("1301"))
	r.MustInsert(String("SSN692"), String("Omaha"), String("0201"))
	return r
}

func TestJoin(t *testing.T) {
	sub := submarineRelation(t)
	cls := classRelation(t)
	j, err := sub.Join(cls, JoinOn{Left: "Class", Right: "Class"})
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 3 {
		t.Fatalf("join = %d rows, want 3", j.Len())
	}
	// Colliding "Class" must be qualified on both sides.
	if _, ok := j.Schema().Index("SUBMARINE.Class"); !ok {
		t.Errorf("join schema missing SUBMARINE.Class: %s", j.Schema())
	}
	if _, ok := j.Schema().Index("CLASS.Class"); !ok {
		t.Errorf("join schema missing CLASS.Class: %s", j.Schema())
	}
	nl, err := joinNestedLoop(sub, cls, JoinOn{Left: "Class", Right: "Class"})
	if err != nil {
		t.Fatal(err)
	}
	if nl.Len() != j.Len() {
		t.Errorf("nested-loop join = %d rows, hash join = %d", nl.Len(), j.Len())
	}
	if _, err := sub.Join(cls); err == nil {
		t.Error("join with no conditions should error")
	}
	if _, err := sub.Join(cls, JoinOn{Left: "nope", Right: "Class"}); err == nil {
		t.Error("join on missing left column should error")
	}
	if _, err := sub.Join(cls, JoinOn{Left: "Class", Right: "nope"}); err == nil {
		t.Error("join on missing right column should error")
	}
}

func TestMinMaxCountDistinct(t *testing.T) {
	r := classRelation(t)
	min, ok, err := r.Min("Displacement")
	if err != nil || !ok || !min.Equal(Int(3640)) {
		t.Errorf("Min = %v %v %v", min, ok, err)
	}
	max, ok, err := r.Max("Displacement")
	if err != nil || !ok || !max.Equal(Int(30000)) {
		t.Errorf("Max = %v %v %v", max, ok, err)
	}
	n, err := r.CountDistinct("Type")
	if err != nil || n != 2 {
		t.Errorf("CountDistinct = %d %v", n, err)
	}
	empty := New("E", r.Schema())
	if _, ok, _ := empty.Min("Displacement"); ok {
		t.Error("Min of empty relation should report !ok")
	}
	if _, _, err := r.Min("missing"); err == nil {
		t.Error("Min on missing column should error")
	}
}

// joinNestedLoop computes the same equi-join as Join by comparing every
// pair of rows — the reference the hash join is checked against.
func joinNestedLoop(r, s *Relation, on ...JoinOn) (*Relation, error) {
	if len(on) == 0 {
		return nil, fmt.Errorf("relation: join of %s and %s requires at least one condition", r.name, s.name)
	}
	li := make([]int, len(on))
	ri := make([]int, len(on))
	for k, o := range on {
		var ok bool
		if li[k], ok = r.schema.Index(o.Left); !ok {
			return nil, fmt.Errorf("relation %s: join: no column %q", r.name, o.Left)
		}
		if ri[k], ok = s.schema.Index(o.Right); !ok {
			return nil, fmt.Errorf("relation %s: join: no column %q", s.name, o.Right)
		}
	}
	schema, err := joinSchema(r, s)
	if err != nil {
		return nil, err
	}
	out := New(r.name+"⋈"+s.name, schema)
	for _, lt := range r.rows {
	right:
		for _, rt := range s.rows {
			for k := range on {
				if !lt[li[k]].Equal(rt[ri[k]]) {
					continue right
				}
			}
			row := make(Tuple, 0, len(lt)+len(rt))
			row = append(append(row, lt...), rt...)
			out.rows = append(out.rows, row)
		}
	}
	return out, nil
}

// Property: hash join and nested-loop join agree on random data.
func TestJoinStrategiesAgreeProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		ls := MustSchema(Column{Name: "K", Type: TInt}, Column{Name: "A", Type: TInt})
		rs := MustSchema(Column{Name: "K2", Type: TInt}, Column{Name: "B", Type: TInt})
		l := New("L", ls)
		r := New("R", rs)
		for i := 0; i < rr.Intn(30); i++ {
			l.MustInsert(Int(int64(rr.Intn(8))), Int(int64(rr.Intn(100))))
		}
		for i := 0; i < rr.Intn(30); i++ {
			r.MustInsert(Int(int64(rr.Intn(8))), Int(int64(rr.Intn(100))))
		}
		h, err1 := l.Join(r, JoinOn{Left: "K", Right: "K2"})
		n, err2 := joinNestedLoop(l, r, JoinOn{Left: "K", Right: "K2"})
		if err1 != nil || err2 != nil {
			return false
		}
		if h.Len() != n.Len() {
			return false
		}
		// Same multiset of tuples.
		count := map[string]int{}
		for _, t := range h.Rows() {
			count[t.Key()]++
		}
		for _, t := range n.Rows() {
			count[t.Key()]--
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Unique is idempotent and never grows the relation.
func TestUniqueIdempotentProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		s := MustSchema(Column{Name: "A", Type: TInt}, Column{Name: "B", Type: TString})
		r := New("R", s)
		for i := 0; i < rr.Intn(50); i++ {
			r.MustInsert(Int(int64(rr.Intn(5))), String(string(rune('a'+rr.Intn(3)))))
		}
		u := r.Unique()
		if u.Len() > r.Len() {
			return false
		}
		return u.Unique().Len() == u.Len()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
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
		return r.Select(p).Len()+r.Select(Not(p)).Len() == r.Len()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
