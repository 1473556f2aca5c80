package quel

import (
	"testing"

	"intensional/internal/plan"
	"intensional/internal/relation"
)

// planFor parses a retrieve statement and plans it on the session's
// planner with the session's range bindings, without running it.
func planFor(t *testing.T, s *Session, src string) *RetrievePlan {
	t.Helper()
	return planOn(t, s.p, s.ranges, src)
}

// planOn parses a retrieve statement and plans it on pl with the given
// range bindings, without running it.
func planOn(t *testing.T, pl *Planner, ranges map[string]string, src string) *RetrievePlan {
	t.Helper()
	st, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	rst, ok := st.(*RetrieveStmt)
	if !ok {
		t.Fatalf("parse %q: not a retrieve", src)
	}
	rp, err := pl.PlanRetrieve(rst, ranges)
	if err != nil {
		t.Fatalf("plan %q: %v", src, err)
	}
	return rp
}

// findIndexScan walks a plan tree for its (first) IndexScan node.
func findIndexScan(n plan.Node) *plan.IndexScan {
	if ix, ok := n.(*plan.IndexScan); ok {
		return ix
	}
	for _, c := range n.Children() {
		if ix := findIndexScan(c); ix != nil {
			return ix
		}
	}
	return nil
}

// findFullScan walks a plan tree for its (first) FullScan node.
func findFullScan(n plan.Node) *plan.FullScan {
	if fs, ok := n.(*plan.FullScan); ok {
		return fs
	}
	for _, c := range n.Children() {
		if fs := findFullScan(c); fs != nil {
			return fs
		}
	}
	return nil
}

// TestCostBasedIndexSelection: with two index-usable conjuncts on one
// variable, the planner must pick the narrower one by actual index
// cardinality — regardless of the order the conjuncts are written in.
// The old behaviour took the first usable conjunct, so the "b.G = 3 and
// b.K = 250" ordering regresses to scanning ~1/7th of the relation
// instead of exactly one row.
func TestCostBasedIndexSelection(t *testing.T) {
	cat := bigCatalog(t, 500) // K unique, G = K%7 (~71 rows per value)
	s := NewSession(NewPlanner(cat, nil))
	mustExec(t, s, "range of b is BIG")

	for _, src := range []string{
		"retrieve (b.K) where b.K = 250 and b.G = 5",
		"retrieve (b.K) where b.G = 5 and b.K = 250",
	} {
		rp := planFor(t, s, src)
		ix := findIndexScan(rp.Describe())
		if ix == nil {
			t.Fatalf("%q: no index scan in plan\n%s", src, rp.Describe())
		}
		if ix.Column != "K" {
			t.Errorf("%q: chose index on %s, want K (narrower)", src, ix.Column)
		}
		if ix.Est != 1 {
			t.Errorf("%q: index scan est = %d, want 1", src, ix.Est)
		}
		res, err := rp.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Rel.Len() != 1 || res.Rel.Row(0)[0].Int64() != 250 {
			t.Errorf("%q: rows = %v", src, res.Rel.Rows())
		}
	}
}

// TestCostBasedSelectionPrefersEquality: a wide range conjunct written
// first must not shadow a selective equality on another column.
func TestCostBasedSelectionPrefersEquality(t *testing.T) {
	cat := bigCatalog(t, 500)
	s := NewSession(NewPlanner(cat, nil))
	mustExec(t, s, "range of b is BIG")

	rp := planFor(t, s, "retrieve (b.K) where b.K > 10 and b.G = 3")
	ix := findIndexScan(rp.Describe())
	if ix == nil {
		t.Fatal("no index scan in plan")
	}
	// K > 10 matches 489 rows; G = 3 matches ~71. G must win.
	if ix.Column != "G" {
		t.Errorf("chose index on %s, want G", ix.Column)
	}
}

// TestWrongKindSelectionIsFiltered: a selection whose constant the
// column's type does not order against (a string or a null against an
// int column) is no index candidate. It stays in the filter over a full
// scan, where it matches no row; an index-usable selection beside it
// still gets the index.
func TestWrongKindSelectionIsFiltered(t *testing.T) {
	cat := bigCatalog(t, 100)
	var c Counters
	pl := NewPlanner(cat, &c)
	ranges := map[string]string{"b": "BIG"}
	for _, tc := range []struct {
		src   string
		probe relation.Value // replaces the first conjunct's constant
		index bool           // whether the plan has an index scan
	}{
		{`retrieve (b.K) where b.K = "oops"`, relation.String("oops"), false},
		{`retrieve (b.K) where b.K = 0`, relation.Null(), false},
		{`retrieve (b.K) where b.K = 0 and b.G = 3`, relation.String("3"), true},
	} {
		st, err := Parse(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		rst := st.(*RetrieveStmt)
		first := rst.Where
		if and, ok := first.(*AndExpr); ok {
			first = and.Terms[0]
		}
		first.(*BinExpr).R = ConstOperand{Val: tc.probe}
		before := c.IndexScans.Load()
		rp, err := pl.PlanRetrieve(rst, ranges)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		ix := findIndexScan(rp.Describe())
		if (ix != nil) != tc.index || (ix != nil && ix.Column != "G") {
			t.Errorf("%s with %#v: index scan %+v, want one on G: %v\n%s",
				tc.src, tc.probe, ix, tc.index, rp.Describe())
		}
		res, err := rp.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Rel.Len() != 0 {
			t.Errorf("%s with %#v: rows = %d, want 0", tc.src, tc.probe, res.Rel.Len())
		}
		want := int64(0)
		if tc.index {
			want = 1
		}
		if got := c.IndexScans.Load() - before; got != want {
			t.Errorf("%s with %#v: %d index scans counted, want %d", tc.src, tc.probe, got, want)
		}
	}
}

// TestScanCounters: index and full scans are counted per executed
// access path.
func TestScanCounters(t *testing.T) {
	cat := bigCatalog(t, 200)
	var c Counters
	s := NewSession(NewPlanner(cat, &c))
	mustExec(t, s, "range of b is BIG")

	mustExec(t, s, "retrieve (b.K) where b.K = 42")
	if ix, full := c.IndexScans.Load(), c.FullScans.Load(); ix != 1 || full != 0 {
		t.Errorf("after indexed query: index=%d full=%d, want 1/0", ix, full)
	}
	mustExec(t, s, "retrieve (b.K)")
	if ix, full := c.IndexScans.Load(), c.FullScans.Load(); ix != 1 || full != 1 {
		t.Errorf("after unqualified query: index=%d full=%d, want 1/1", ix, full)
	}
}

// TestSharedIndexCache: an index one statement builds serves every
// later statement on the same relation — one build, not one per
// statement. The index is the relation's, so a second planner over the
// same catalog shares it too.
func TestSharedIndexCache(t *testing.T) {
	cat := bigCatalog(t, 200)
	var c Counters
	pl := NewPlanner(cat, &c)
	ranges := map[string]string{"b": "BIG"}
	rel, err := cat.Get("BIG")
	if err != nil {
		t.Fatal(err)
	}

	res, err := planOn(t, pl, ranges, "retrieve (b.K) where b.K = 42").Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 1 {
		t.Fatalf("rows = %d, want 1", res.Rel.Len())
	}
	built := rel.Index(0)

	other := NewPlanner(cat, &c)
	for _, p := range []*Planner{pl, other} {
		res, err = planOn(t, p, ranges, "retrieve (b.G) where b.K = 42").Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Rel.Len() != 1 {
			t.Fatalf("rows = %d, want 1", res.Rel.Len())
		}
	}
	if n := c.IndexScans.Load(); n != 3 {
		t.Errorf("IndexScans = %d, want 3", n)
	}
	if again := rel.Index(0); again != built {
		t.Error("a later statement rebuilt the index; want 1 shared index")
	}
}
