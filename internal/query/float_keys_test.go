package query

import (
	"math"
	"slices"
	"testing"

	"intensional/internal/quel"
	"intensional/internal/relation"
	"intensional/internal/storage"
)

// floatCatalog holds one single-column float relation per entry of rels.
func floatCatalog(t *testing.T, rels map[string][]relation.Value) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	for name, vals := range rels {
		rel, err := cat.Create(name, relation.MustSchema(relation.Column{Name: name + "V", Type: relation.TFloat}))
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vals {
			rel.MustInsert(v)
		}
	}
	return cat
}

// rowKeys renders a result as the sorted list of its row keys, so two
// results compare as multisets.
func rowKeys(rel *relation.Relation) []string {
	out := make([]string, rel.Len())
	for i, row := range rel.Rows() {
		out[i] = row.Key()
	}
	slices.Sort(out)
	return out
}

// TestNaNColumnIndexAgreesWithScan: a NaN compares equal to every number,
// so a float column holding one has no total order for an index to
// binary-search. "K = 5" — an index-usable condition — must return the
// same multiset as "K = 5 OR K = 5", which always runs as a full scan
// under Value.Equal, and the planner must report the column's index
// fallback.
func TestNaNColumnIndexAgreesWithScan(t *testing.T) {
	vals := make([]relation.Value, 100)
	for i := range vals {
		vals[i] = relation.Float(float64(i % 10))
		if i%7 == 0 {
			vals[i] = relation.Float(math.NaN())
		}
	}
	var c quel.Counters
	p := New(floatCatalog(t, map[string][]relation.Value{"T": vals}), &c, nil)
	indexed, _, err := run(p, "SELECT TV FROM T WHERE TV = 5")
	if err != nil {
		t.Fatal(err)
	}
	scanned, _, err := run(p, "SELECT TV FROM T WHERE TV = 5 OR TV = 5")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rowKeys(indexed), rowKeys(scanned); !slices.Equal(got, want) {
		t.Errorf("TV = 5 gives %d rows, TV = 5 OR TV = 5 gives %d", len(got), len(want))
	}
	if n := c.IndexScans.Load(); n != 0 {
		t.Errorf("IndexScans = %d, want 0 (the column holds NaN)", n)
	}
	if n := c.IndexFallbacks.Load(); n == 0 {
		t.Error("IndexFallbacks = 0, want the refused index counted")
	}
}

// TestSignedZeroKeys: -0 equals 0, so hashing and grouping must treat
// them as one value, as the comparison operators already do.
func TestSignedZeroKeys(t *testing.T) {
	negZero := relation.Float(math.Copysign(0, -1))
	p := New(floatCatalog(t, map[string][]relation.Value{
		"T": {relation.Float(0), negZero},
		"U": {relation.Float(0)},
	}), nil, nil)
	for _, c := range []struct {
		sql  string
		want int
	}{
		{"SELECT TV FROM T WHERE TV = 0", 2},
		{"SELECT DISTINCT TV FROM T", 1},
		{"SELECT T.TV FROM T, U WHERE T.TV = U.UV", 2},
	} {
		rel, _, err := run(p, c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if rel.Len() != c.want {
			t.Errorf("%s: %d rows %v, want %d", c.sql, rel.Len(), rel.Rows(), c.want)
		}
	}
}
