package core_test

import (
	"context"
	"testing"

	"intensional/internal/core"
	"intensional/internal/relation"
	"intensional/internal/shipdb"
)

// submarineIndex returns the current snapshot's index on SUBMARINE.Id.
func submarineIndex(t *testing.T, s *core.System) *relation.Index {
	t.Helper()
	rel, err := s.Catalog().Get(shipdb.Submarine)
	if err != nil {
		t.Fatal(err)
	}
	ci, ok := rel.Schema().Index("Id")
	if !ok {
		t.Fatal("SUBMARINE has no Id column")
	}
	ix := rel.Index(ci)
	return ix
}

// TestWritesKeepUntouchedIndexes: a relation a write does not touch is
// shared by the next snapshot, and its column index with it; the
// relation a write touches is a new object, whose index is built over
// its new rows.
func TestWritesKeepUntouchedIndexes(t *testing.T) {
	s := shipSystem(t)
	ctx := context.Background()
	before := submarineIndex(t, s)
	version := s.Version()

	if _, err := s.Apply(ctx, `INSERT INTO SONAR VALUES ('TST-06', 'Hull')`); err != nil {
		t.Fatal(err)
	}
	if s.Version() == version {
		t.Fatal("the write did not publish a new snapshot")
	}
	if ix := submarineIndex(t, s); ix != before {
		t.Error("a write to SONAR replaced SUBMARINE's index; want it inherited")
	}

	if _, err := s.Apply(ctx, `INSERT INTO SUBMARINE VALUES ('SSN995', 'Newfish', '0204')`); err != nil {
		t.Fatal(err)
	}
	after := submarineIndex(t, s)
	if after == before || !after.Fresh() {
		t.Fatalf("index after a write to SUBMARINE: reused = %v, fresh = %v; want a new, fresh one",
			after == before, after.Fresh())
	}
	if n, err := after.Count("=", relation.String("SSN995")); err != nil || n != 1 {
		t.Errorf("new index counts %d rows of SSN995 (err %v), want 1", n, err)
	}
	if !before.Fresh() {
		t.Error("the old snapshot's index went stale; the write must not touch the old relation")
	}
}
