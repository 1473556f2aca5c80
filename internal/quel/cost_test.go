package quel

import (
	"strings"
	"testing"

	"intensional/internal/plan"
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
	s := NewSession(NewPlanner(cat, nil, nil))
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
	s := NewSession(NewPlanner(cat, nil, nil))
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

// TestFallbackCounterAndLog: an index-usable conjunct whose probe value
// cannot be compared with the column (string probe on an int column)
// degrades to a full scan — counted, logged with the reason, and
// surfaced in the plan.
func TestFallbackCounterAndLog(t *testing.T) {
	cat := bigCatalog(t, 100)
	var c Counters
	var logged []string
	s := NewSession(NewPlanner(cat, &c, func(format string, args ...any) {
		logged = append(logged, format)
	}))
	mustExec(t, s, "range of b is BIG")

	rp := planFor(t, s, `retrieve (b.K) where b.K = "oops"`)
	if got := c.IndexFallbacks.Load(); got != 1 {
		t.Errorf("IndexFallbacks = %d, want 1", got)
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "index fallback") {
		t.Errorf("logged = %q", logged)
	}
	fs := findFullScan(rp.Describe())
	if fs == nil {
		t.Fatalf("no full scan in plan\n%s", rp.Describe())
	}
	if fs.Fallback == "" || !strings.Contains(fs.Label(), "index fallback") {
		t.Errorf("fallback not surfaced in plan: %q", fs.Label())
	}
	// The query still answers (comparison with an incomparable value is
	// simply false for every row).
	res, err := rp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 0 {
		t.Errorf("rows = %d, want 0", res.Rel.Len())
	}
	if got := c.FullScans.Load(); got != 1 {
		t.Errorf("FullScans = %d, want 1", got)
	}
}

// TestScanCounters: index and full scans are counted per executed
// access path.
func TestScanCounters(t *testing.T) {
	cat := bigCatalog(t, 200)
	var c Counters
	s := NewSession(NewPlanner(cat, &c, nil))
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
	pl := NewPlanner(cat, &c, nil)
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
	built, err := rel.Index(0)
	if err != nil {
		t.Fatal(err)
	}

	other := NewPlanner(cat, &c, nil)
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
	if again, _ := rel.Index(0); again != built {
		t.Error("a later statement rebuilt the index; want 1 shared index")
	}
}
