package relation

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func indexedRelation(t *testing.T) *Relation {
	t.Helper()
	r := New("R", MustSchema(
		Column{Name: "K", Type: TInt},
		Column{Name: "S", Type: TString},
	))
	for _, k := range []int64{5, 1, 9, 3, 5, 7} {
		r.MustInsert(Int(k), String("x"))
	}
	r.MustInsert(Null(), String("n")) // nulls are not indexed
	return r
}

func TestIndexLookupOperators(t *testing.T) {
	r := indexedRelation(t)
	ix := r.Index(0)
	if ix.Len() != 6 {
		t.Fatalf("indexed rows = %d, want 6 (null excluded)", ix.Len())
	}
	cases := []struct {
		op   string
		v    int64
		want int
	}{
		{"=", 5, 2}, {"=", 4, 0},
		{"<", 5, 2}, {"<=", 5, 4},
		{">", 5, 2}, {">=", 5, 4},
		{"!=", 5, 4},
	}
	for _, c := range cases {
		rows, err := ix.Lookup(c.op, Int(c.v))
		if err != nil {
			t.Fatalf("Lookup(%s %d): %v", c.op, c.v, err)
		}
		if len(rows) != c.want {
			t.Errorf("Lookup(%s %d) = %d rows, want %d", c.op, c.v, len(rows), c.want)
		}
		for _, pos := range rows {
			if r.Row(pos)[0].IsNull() {
				t.Errorf("Lookup(%s %d) returned a null row", c.op, c.v)
			}
		}
	}
	if _, err := ix.Lookup("~", Int(1)); err == nil {
		t.Error("unsupported operator should error")
	}
	if _, err := ix.Lookup("=", String("x")); err == nil {
		t.Error("incomparable value should error")
	}
}

func TestIndexStaleness(t *testing.T) {
	r := indexedRelation(t)
	ix := r.Index(0)
	if !ix.Fresh() {
		t.Fatal("fresh index reported stale")
	}
	r.MustInsert(Int(2), String("y"))
	if ix.Fresh() {
		t.Error("index should be stale after insert")
	}
	if _, err := ix.Lookup("=", Int(2)); err == nil {
		t.Error("stale lookup should error")
	}
	// Every mutation path bumps the version.
	v := r.Version()
	if err := r.Set(0, 1, String("z")); err != nil {
		t.Fatal(err)
	}
	if r.Version() == v {
		t.Error("Set must bump version")
	}
	v = r.Version()
	r.Delete(func(t Tuple) bool { return false })
	if r.Version() != v {
		t.Error("no-op delete must not bump version")
	}
	r.Delete(func(t Tuple) bool { return true })
	if r.Version() == v {
		t.Error("delete must bump version")
	}
	v = r.Version()
	if err := r.InsertStrings("4", "w"); err != nil {
		t.Fatal(err)
	}
	if r.Version() == v {
		t.Error("InsertStrings must bump version")
	}
}

// TestBuildIndexErrors: every column can be indexed, so the errors left
// are a probe's: a value the column's type does not order against (a
// null included) fails Lookup and Count with an error naming the column,
// on an empty index too.
func TestBuildIndexErrors(t *testing.T) {
	r := indexedRelation(t)
	empty := New("E", r.Schema())
	for _, c := range []struct {
		rel   *Relation
		col   int
		probe Value
	}{
		{r, 0, String("x")},
		{r, 0, Null()},
		{r, 1, Int(1)},
		{r, 1, Float(1)},
		{empty, 0, String("x")},
	} {
		name := c.rel.Schema().Col(c.col).Name
		ix := c.rel.Index(c.col)
		if _, err := ix.Lookup("=", c.probe); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s.%s Lookup(= %#v): err = %v, want one naming %s", c.rel.Name(), name, c.probe, err, name)
		}
		if _, err := ix.Count("<", c.probe); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s.%s Count(< %#v): err = %v, want one naming %s", c.rel.Name(), name, c.probe, err, name)
		}
	}
}

// Property: index lookups agree with a full scan for every operator.
func TestIndexAgreesWithScanProperty(t *testing.T) {
	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	prop := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		r := New("R", MustSchema(Column{Name: "K", Type: TInt}))
		n := rr.Intn(60)
		for i := 0; i < n; i++ {
			r.MustInsert(Int(int64(rr.Intn(20))))
		}
		ix := r.Index(0)
		for trial := 0; trial < 5; trial++ {
			op := ops[rr.Intn(len(ops))]
			v := Int(int64(rr.Intn(20)))
			got, err := ix.Lookup(op, v)
			if err != nil {
				return false
			}
			pred, err := Cmp(r.Schema(), "K", op, v)
			if err != nil {
				return false
			}
			want := 0
			for _, row := range r.Rows() {
				if pred(row) {
					want++
				}
			}
			if len(got) != want {
				t.Logf("seed %d: op %s %s: index %d, scan %d", seed, op, v, len(got), want)
				return false
			}
			seen := map[int]bool{}
			for _, pos := range got {
				if seen[pos] || !pred(r.Row(pos)) {
					return false
				}
				seen[pos] = true
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestBuildIndexRejectsMixedKinds: a column mixing strings and numbers
// has no total order, so a binary search over it could return a wrong
// range. Such a column cannot arise: Insert and Set refuse a value of
// another kind, naming the column. Ints and floats are mutually
// comparable and share a numeric column's index, and nulls are not
// indexed.
func TestBuildIndexRejectsMixedKinds(t *testing.T) {
	r := New("MIXED", MustSchema(Column{Name: "K", Type: TString}))
	r.MustInsert(String("b"))
	r.MustInsert(String("a"))
	if err := r.Insert(Tuple{Int(5)}); err == nil || !strings.Contains(err.Error(), "column K") {
		t.Errorf("Insert(5) into a string column: err = %v, want one naming K", err)
	}
	if err := r.Set(0, 0, Float(1)); err == nil || !strings.Contains(err.Error(), "column K") {
		t.Errorf("Set(1.0) in a string column: err = %v, want one naming K", err)
	}
	if ix := r.Index(0); ix.Len() != 2 || ix.Value(0).Str() != "a" {
		t.Errorf("string index holds %d values, first %v; want a, b", ix.Len(), ix.Value(0))
	}

	f := New("NUM", MustSchema(Column{Name: "K", Type: TFloat}))
	f.MustInsert(Float(2.5))
	f.MustInsert(Int(7))
	f.MustInsert(Int(1))
	rows, err := f.Index(0).Lookup(">", Int(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("Lookup(> 2) = %d rows, want 2", len(rows))
	}

	n := New("NULLS", MustSchema(Column{Name: "K", Type: TInt}))
	n.MustInsert(Null())
	n.MustInsert(Int(3))
	if got := n.Index(0).Len(); got != 1 {
		t.Errorf("index with a null holds %d rows, want 1", got)
	}
}

// TestIndexRejectsNaN: a NaN compares equal to every number, and an
// infinity is no measured value, so a float column holds neither:
// Insert, Set and InsertStrings refuse them with an error naming the
// column, and the index over the finite rows answers as a scan does.
func TestIndexRejectsNaN(t *testing.T) {
	r := New("F", MustSchema(Column{Name: "K", Type: TFloat}))
	for i := 0; i < 20; i++ {
		r.MustInsert(Float(float64(i % 5)))
	}
	for _, v := range []Value{Float(math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1))} {
		if err := r.Insert(Tuple{v}); err == nil || !strings.Contains(err.Error(), "column K") {
			t.Errorf("Insert(%v): err = %v, want one naming K", v, err)
		}
		if err := r.Set(3, 0, v); err == nil || !strings.Contains(err.Error(), "column K") {
			t.Errorf("Set(%v): err = %v, want one naming K", v, err)
		}
		if err := r.InsertStrings(v.String()); err == nil || !strings.Contains(err.Error(), "column K") {
			t.Errorf("InsertStrings(%q): err = %v, want one naming K", v.String(), err)
		}
	}
	if r.Len() != 20 || !r.Row(3)[0].Equal(Float(3)) {
		t.Fatalf("a refused value was stored: %d rows, row 3 = %v", r.Len(), r.Row(3))
	}
	rows, err := r.Index(0).Lookup("=", Int(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Errorf("Lookup(= 3) = %d rows, want 4", len(rows))
	}
}

// TestIndexSharedAndVersioned: Index hands every caller the one index
// of a column until the relation changes, then builds a new one over the
// current rows.
func TestIndexSharedAndVersioned(t *testing.T) {
	r := indexedRelation(t)
	ix := r.Index(0)
	if again := r.Index(0); again != ix {
		t.Error("second Index call built a new index")
	}
	if got := r.Index(1).Len(); got != r.Len() {
		t.Errorf("the string column's index holds %d rows, want %d", got, r.Len())
	}
	r.MustInsert(Int(4), String("y"))
	fresh := r.Index(0)
	if fresh == ix || !fresh.Fresh() || fresh.Len() != ix.Len()+1 {
		t.Errorf("after insert: new index %v, fresh %v, %d rows (was %d)",
			fresh != ix, fresh.Fresh(), fresh.Len(), ix.Len())
	}
	if c := r.Clone(); c.ixs != nil {
		t.Error("Clone copied the original's index set")
	}
}

// TestIndexConcurrentFirstCalls: concurrent first calls for one column
// build the index once and all get it (run under -race).
func TestIndexConcurrentFirstCalls(t *testing.T) {
	r := New("R", MustSchema(Column{Name: "K", Type: TInt}, Column{Name: "G", Type: TInt}))
	for i := 0; i < 2000; i++ {
		r.MustInsert(Int(int64(i*7919%2000)), Int(int64(i%13)))
	}
	const workers = 8
	got := make([]*Index, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ix := r.Index(w % 2)
			if n, err := ix.Count(">=", Int(0)); err != nil || n != 2000 {
				t.Errorf("worker %d: Count = %d, %v", w, n, err)
			}
			got[w] = ix
		}(w)
	}
	wg.Wait()
	for w := 2; w < workers; w++ {
		if got[w] != got[w%2] {
			t.Errorf("worker %d got a different index on column %d", w, w%2)
		}
	}
}

// TestIndexCountMatchesLookup checks the planner's cardinality estimate
// against the materialised result for every operator.
func TestIndexCountMatchesLookup(t *testing.T) {
	r := indexedRelation(t)
	ix := r.Index(0)
	for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
		for v := int64(0); v <= 10; v++ {
			rows, err := ix.Lookup(op, Int(v))
			if err != nil {
				t.Fatal(err)
			}
			n, err := ix.Count(op, Int(v))
			if err != nil {
				t.Fatal(err)
			}
			if n != len(rows) {
				t.Errorf("Count(%s %d) = %d, Lookup returned %d rows", op, v, n, len(rows))
			}
		}
	}
	if _, err := ix.Count("~", Int(1)); err == nil {
		t.Error("unsupported operator should error")
	}
	if _, err := ix.Count("=", String("x")); err == nil {
		t.Error("incomparable probe should error")
	}
}

// TestIndexRowWalksInValueOrder checks that Row maps each sorted
// position to the row holding that position's value, ties in row order.
func TestIndexRowWalksInValueOrder(t *testing.T) {
	r := indexedRelation(t)
	ix := r.Index(0)
	var got []int
	for p := 0; p < ix.Len(); p++ {
		if v := r.Row(ix.Row(p))[0]; !v.Equal(ix.Value(p)) {
			t.Errorf("position %d: row %d holds %v, index says %v", p, ix.Row(p), v, ix.Value(p))
		}
		got = append(got, ix.Row(p))
	}
	// Keys 5, 1, 9, 3, 5, 7 in rows 0–5: ascending 1, 3, 5, 5, 7, 9.
	want := []int{1, 3, 0, 4, 5, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted rows = %v, want %v", got, want)
		}
	}
}
