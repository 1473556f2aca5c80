package quel

import (
	"fmt"
	"strings"
	"testing"

	"intensional/internal/relation"
	"intensional/internal/storage"
)

// TestIndexCacheRejectsReplacedRelation: replacing a relation under
// the same name must never serve the old object's rows. A planner that
// indexed the old BIG answers the next statement from the new one; each
// relation owns its indexes, so the new object starts with none.
func TestIndexCacheRejectsReplacedRelation(t *testing.T) {
	cat := bigCatalog(t, 100) // K = 0..99, above the indexing threshold
	pl := NewPlanner(cat, nil)
	ranges := map[string]string{"b": "BIG"}

	res, err := planOn(t, pl, ranges, "retrieve (b.K) where b.K = 50").Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 1 {
		t.Fatalf("seed query: %d rows, want 1", res.Rel.Len())
	}
	old, err := cat.Get("BIG")
	if err != nil {
		t.Fatal(err)
	}
	oldIx := old.Index(0)

	// Replace BIG wholesale: same name, different object, K = 100..199.
	repl := relation.New("BIG", relation.MustSchema(
		relation.Column{Name: "K", Type: relation.TInt},
		relation.Column{Name: "G", Type: relation.TInt},
	))
	for i := 100; i < 200; i++ {
		repl.MustInsert(relation.Int(int64(i)), relation.Int(int64(i%7)))
	}
	cat.Put(repl)

	res, err = planOn(t, pl, ranges, "retrieve (b.K) where b.K = 150").Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 1 || !res.Rel.Row(0)[0].Equal(relation.Int(150)) {
		t.Fatalf("query against replaced relation = %v, want one row K=150 "+
			"(a stale index over the old relation was served)", res.Rel.Rows())
	}
	if ix := repl.Index(0); ix == oldIx || ix.Len() != 100 {
		t.Fatalf("replacement's index: %d rows, shared with the old relation %v", ix.Len(), ix == oldIx)
	}
}

// TestStreamingIndexScanSeesInPlaceAppend pins index-scan observability
// through the streaming pipeline: a planned index scan over a relation
// appended to in place since planning is served by the relation's
// rebuilt index, counted as an index scan, and returns the new row. An
// append of a non-finite float is refused, naming the column, so the
// index has no NaN to misorder.
func TestStreamingIndexScanSeesInPlaceAppend(t *testing.T) {
	cat := storage.NewCatalog()
	rel, err := cat.Create("F", relation.MustSchema(relation.Column{Name: "X", Type: relation.TFloat}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		rel.MustInsert(relation.Float(float64(i)))
	}
	var ctr Counters
	s := NewSession(NewPlanner(cat, &ctr))
	mustExec(t, s, "range of f is F")

	rp := planFor(t, s, "retrieve (f.X) where f.X = 50")
	if findIndexScan(rp.Describe()) == nil {
		t.Fatalf("plan did not choose an index scan:\n%s", rp.Describe())
	}
	for _, v := range []string{"NaN", "Inf", "-Inf"} {
		if _, err := s.Exec(fmt.Sprintf("append to F (X = %q)", v)); err == nil || !strings.Contains(err.Error(), "F.X") {
			t.Errorf("append X = %q: err = %v, want one naming F.X", v, err)
		}
	}
	mustExec(t, s, "append to F (X = 50.0)")
	res, err := rp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 2 || !res.Rel.Row(0)[0].Equal(relation.Float(50)) || !res.Rel.Row(1)[0].Equal(relation.Float(50)) {
		t.Fatalf("result = %v, want X=50 twice", res.Rel.Rows())
	}
	if got := ctr.IndexScans.Load(); got != 1 {
		t.Errorf("IndexScans = %d, want 1", got)
	}
	if got := ctr.FullScans.Load(); got != 0 {
		t.Errorf("FullScans = %d, want 0", got)
	}
}
