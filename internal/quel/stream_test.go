package quel

import (
	"fmt"
	"strings"
	"testing"

	"intensional/internal/relation"
)

// TestIndexCacheRejectsReplacedRelation pins the staleness hole fixed in
// the shared IndexCache: entries used to be validated with Index.Fresh
// alone but keyed by relation name only, so replacing a relation under
// the same name left a cached index over the *old* object that still
// looked fresh (the old object's version never moves again). A planner
// picking it up silently answered queries from the replaced data. The
// cache must validate relation identity as well as freshness.
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
	if pl.cache.Len() != 1 {
		t.Fatalf("index cache size = %d, want 1", pl.cache.Len())
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
}

// TestStreamingFallbackCountsAndLogs pins the index-fallback
// observability through the streaming pipeline: when a planned index
// scan finds its index stale at Open and the rebuild declines (the
// relation shrank below the indexing threshold), the scan must degrade
// to a full scan, still return correct rows, and report the degradation
// through Counters.IndexFallbacks and the session log.
func TestStreamingFallbackCountsAndLogs(t *testing.T) {
	cat := bigCatalog(t, 100)
	var ctr Counters
	var logs []string
	s := NewSession(NewPlanner(cat, &ctr, func(format string, args ...any) {
		logs = append(logs, fmt.Sprintf(format, args...))
	}))
	mustExec(t, s, "range of b is BIG")

	rp := planFor(t, s, "retrieve (b.K) where b.K = 50")
	if findIndexScan(rp.Describe()) == nil {
		t.Fatalf("plan did not choose an index scan:\n%s", rp.Describe())
	}

	// Invalidate the planned index and shrink the relation below the
	// indexing threshold, so the rebuild at Open declines.
	rel, err := cat.Get("BIG")
	if err != nil {
		t.Fatal(err)
	}
	rel.Delete(func(tu relation.Tuple) bool { return tu[0].Int64() >= 60 })
	if rel.Len() >= indexMinRows {
		t.Fatalf("test setup: %d rows does not undercut indexMinRows=%d", rel.Len(), indexMinRows)
	}

	res, err := rp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 1 || !res.Rel.Row(0)[0].Equal(relation.Int(50)) {
		t.Fatalf("fallback result = %v, want one row K=50", res.Rel.Rows())
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
