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
	ix, err := r.Index(0)
	if err != nil {
		t.Fatal(err)
	}
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
	ix, err := r.Index(0)
	if err != nil {
		t.Fatal(err)
	}
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

func TestBuildIndexErrors(t *testing.T) {
	r := indexedRelation(t)
	for _, col := range []int{-1, 2} {
		if _, err := r.Index(col); err == nil {
			t.Errorf("Index(%d) on a two-column relation should error", col)
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
		ix, err := r.Index(0)
		if err != nil {
			return false
		}
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

// TestBuildIndexRejectsMixedKinds is the regression test for the
// mixed-kind binary-search bug: a column holding both strings and
// numbers has no total order, so sorting it with Value.Less and then
// binary-searching could return a wrong range (Lookup only checked the
// probe against the first indexed value). Build must refuse instead.
func TestBuildIndexRejectsMixedKinds(t *testing.T) {
	r := New("MIXED", MustSchema(Column{Name: "K", Type: TString}))
	r.MustInsert(String("b"))
	r.MustInsert(String("a"))
	// Smuggle numeric values past Insert's conformance check, as a bug
	// elsewhere (or a future dynamically typed column) could.
	r.rows = append(r.rows, Tuple{Int(5)}, Tuple{Int(1)})
	if _, err := r.Index(0); err == nil {
		t.Fatal("Index on a mixed string/int column must error")
	}

	// Int/float mixes are mutually comparable and stay indexable.
	f := New("NUM", MustSchema(Column{Name: "K", Type: TFloat}))
	f.MustInsert(Float(2.5))
	f.MustInsert(Int(7))
	f.MustInsert(Int(1))
	ix, err := f.Index(0)
	if err != nil {
		t.Fatalf("Index on int/float column: %v", err)
	}
	rows, err := ix.Lookup(">", Int(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("Lookup(> 2) = %d rows, want 2", len(rows))
	}

	// Nulls do not participate: a column that is mixed only through
	// nulls is still homogeneous.
	n := New("NULLS", MustSchema(Column{Name: "K", Type: TInt}))
	n.MustInsert(Null())
	n.MustInsert(Int(3))
	if _, err := n.Index(0); err != nil {
		t.Errorf("Index with nulls: %v", err)
	}
}

// TestIndexRejectsNaN: a NaN compares equal to every number, so a
// float column holding one has no total order and a binary search over
// it could return a wrong range. Build must refuse it.
func TestIndexRejectsNaN(t *testing.T) {
	r := New("F", MustSchema(Column{Name: "K", Type: TFloat}))
	for i := 0; i < 20; i++ {
		v := Float(float64(i % 5))
		if i%7 == 0 {
			v = Float(math.NaN())
		}
		r.MustInsert(v)
	}
	if _, err := r.Index(0); err == nil || !strings.Contains(err.Error(), "NaN") {
		t.Fatalf("Index on a column holding NaN: err = %v, want a NaN refusal", err)
	}
}

// TestIndexSharedAndVersioned: Index hands every caller the one index
// of a column until the relation changes, then builds a new one over the
// current rows.
func TestIndexSharedAndVersioned(t *testing.T) {
	r := indexedRelation(t)
	ix, err := r.Index(0)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := r.Index(0); again != ix {
		t.Error("second Index call built a new index")
	}
	if _, err := r.Index(1); err != nil {
		t.Errorf("Index on the string column: %v", err)
	}
	if _, err := r.Index(2); err == nil {
		t.Error("Index past the last column should error")
	}
	r.MustInsert(Int(4), String("y"))
	fresh, err := r.Index(0)
	if err != nil {
		t.Fatal(err)
	}
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
			ix, err := r.Index(w % 2)
			if err != nil {
				t.Error(err)
				return
			}
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
	ix, err := r.Index(0)
	if err != nil {
		t.Fatal(err)
	}
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
	ix, err := r.Index(0)
	if err != nil {
		t.Fatal(err)
	}
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
