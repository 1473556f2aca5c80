package quel

import (
	"fmt"
	"testing"

	"intensional/internal/relation"
	"intensional/internal/storage"
)

func bigCatalog(t *testing.T, n int) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	r, err := cat.Create("BIG", relation.MustSchema(
		relation.Column{Name: "K", Type: relation.TInt},
		relation.Column{Name: "G", Type: relation.TInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		r.MustInsert(relation.Int(int64(i)), relation.Int(int64(i%7)))
	}
	return cat
}

// TestIndexedSelection: on a relation above the index threshold the
// planner answers through the relation's lazily built index, with
// identical results to a scan, and reuses the index across statements.
func TestIndexedSelection(t *testing.T) {
	cat := bigCatalog(t, 500)
	var c Counters
	s := NewSession(NewPlanner(cat, &c, nil))
	mustExec(t, s, "range of b is BIG")

	res := mustExec(t, s, "retrieve (b.K) where b.K = 250")
	if res.Rel.Len() != 1 || !res.Rel.Row(0)[0].Equal(relation.Int(250)) {
		t.Fatalf("point lookup = %v", res.Rel.Rows())
	}
	rel, err := cat.Get("BIG")
	if err != nil {
		t.Fatal(err)
	}
	built, err := rel.Index(0)
	if err != nil {
		t.Fatal(err)
	}

	res = mustExec(t, s, "retrieve (b.K) where b.K >= 490")
	if res.Rel.Len() != 10 {
		t.Fatalf("range lookup = %d rows, want 10", res.Rel.Len())
	}
	// Row order matches the scan order (ascending K here by construction).
	for i, row := range res.Rel.Rows() {
		if row[0].Int64() != int64(490+i) {
			t.Errorf("row %d = %v", i, row)
		}
	}
	if ix, _ := rel.Index(0); ix != built {
		t.Error("range lookup rebuilt the index; want it reused")
	}
	if n := c.IndexScans.Load(); n != 2 {
		t.Errorf("IndexScans = %d, want 2", n)
	}

	// A second condition on the same variable filters the index result.
	res = mustExec(t, s, "retrieve (b.K) where b.K < 20 and b.G = 0")
	want := 0
	for i := 0; i < 20; i++ {
		if i%7 == 0 {
			want++
		}
	}
	if res.Rel.Len() != want {
		t.Errorf("combined filter = %d rows, want %d", res.Rel.Len(), want)
	}
}

// TestIndexInvalidatedByMutation: DML through the session must not serve
// stale index results.
func TestIndexInvalidatedByMutation(t *testing.T) {
	cat := bigCatalog(t, 200)
	s := NewSession(NewPlanner(cat, nil, nil))
	mustExec(t, s, "range of b is BIG")
	res := mustExec(t, s, "retrieve (b.K) where b.K = 150")
	if res.Rel.Len() != 1 {
		t.Fatalf("before append: %d rows", res.Rel.Len())
	}
	mustExec(t, s, "append to BIG (K = 150, G = 0)")
	res = mustExec(t, s, "retrieve (b.K) where b.K = 150")
	if res.Rel.Len() != 2 {
		t.Fatalf("after append: %d rows, want 2 (stale index?)", res.Rel.Len())
	}
	mustExec(t, s, "delete b where b.K = 150")
	res = mustExec(t, s, "retrieve (b.K) where b.K = 150")
	if res.Rel.Len() != 0 {
		t.Fatalf("after delete: %d rows, want 0", res.Rel.Len())
	}
}

// TestIndexedMatchesScanOnLargeData re-runs several operators on a large
// relation and cross-checks against relation.Select.
func TestIndexedMatchesScanOnLargeData(t *testing.T) {
	cat := bigCatalog(t, 300)
	s := NewSession(NewPlanner(cat, nil, nil))
	mustExec(t, s, "range of b is BIG")
	rel, _ := cat.Get("BIG")
	for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
		res := mustExec(t, s, fmt.Sprintf("retrieve (b.K) where b.K %s 137", op))
		pred, err := relation.Cmp(rel.Schema(), "K", op, relation.Int(137))
		if err != nil {
			t.Fatal(err)
		}
		if want := rel.Select(pred).Len(); res.Rel.Len() != want {
			t.Errorf("op %s: index path %d rows, scan %d", op, res.Rel.Len(), want)
		}
	}
}
