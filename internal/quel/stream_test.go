package quel

import (
	"fmt"
	"math"
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
	pl := NewPlanner(cat, nil, nil)
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
	oldIx, err := old.Index(0)
	if err != nil {
		t.Fatal(err)
	}

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
	if ix, err := repl.Index(0); err != nil || ix == oldIx || ix.Len() != 100 {
		t.Fatalf("replacement's index: err %v, shared with the old relation %v", err, ix == oldIx)
	}
}

// TestStreamingFallbackCountsAndLogs pins the index-fallback
// observability through the streaming pipeline: when a planned index
// scan finds at Open that the relation can no longer index its column (a
// NaN was appended in place since planning), the scan must degrade to a
// full scan, still return correct rows, and report the degradation
// through Counters.IndexFallbacks and the session log.
func TestStreamingFallbackCountsAndLogs(t *testing.T) {
	cat := storage.NewCatalog()
	rel, err := cat.Create("F", relation.MustSchema(relation.Column{Name: "X", Type: relation.TFloat}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		rel.MustInsert(relation.Float(float64(i)))
	}
	var ctr Counters
	var logs []string
	s := NewSession(NewPlanner(cat, &ctr, func(format string, args ...any) {
		logs = append(logs, fmt.Sprintf(format, args...))
	}))
	mustExec(t, s, "range of f is F")

	rp := planFor(t, s, "retrieve (f.X) where f.X = 50")
	if findIndexScan(rp.Describe()) == nil {
		t.Fatalf("plan did not choose an index scan:\n%s", rp.Describe())
	}

	// A NaN compares equal to every number, so the column loses its
	// total order and the relation refuses to index it.
	rel.MustInsert(relation.Float(math.NaN()))
	res, err := rp.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The re-checked selection keeps what Value.Equal keeps: 50 and NaN.
	if res.Rel.Len() != 2 || !res.Rel.Row(0)[0].Equal(relation.Float(50)) || !res.Rel.Row(1)[0].IsNaN() {
		t.Fatalf("fallback result = %v, want X=50 and X=NaN", res.Rel.Rows())
	}
	if got := ctr.IndexFallbacks.Load(); got != 1 {
		t.Errorf("IndexFallbacks = %d, want 1", got)
	}
	if got := ctr.FullScans.Load(); got != 1 {
		t.Errorf("FullScans = %d, want 1", got)
	}
	if got := ctr.IndexScans.Load(); got != 0 {
		t.Errorf("IndexScans = %d, want 0", got)
	}
	if joined := strings.Join(logs, "\n"); !strings.Contains(joined, "index fallback") {
		t.Errorf("no index-fallback log line; logs:\n%s", joined)
	}
}
