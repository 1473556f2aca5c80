package query

import (
	"math"
	"slices"
	"strings"
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

// TestNaNColumnIndexAgreesWithScan: a NaN compares equal to every
// number, so a float column holding one would give an index, a hash
// join, a cross join with a residual and DISTINCT four different
// answers. A float column cannot hold one: SQL INSERT refuses 'NaN',
// and the relation refuses a NaN or an infinity, naming the column.
// Over what it does hold, "TV = 5" — served by the index — returns the
// multiset "TV = 5 OR TV = 5", a full scan, returns, and the join
// shapes agree with it.
func TestNaNColumnIndexAgreesWithScan(t *testing.T) {
	vals := make([]relation.Value, 100)
	for i := range vals {
		vals[i] = relation.Float(float64(i % 10))
	}
	cat := floatCatalog(t, map[string][]relation.Value{"T": vals, "U": {relation.Int(5)}})
	rel, err := cat.Get("T")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := rel.Insert(relation.Tuple{relation.Float(v)}); err == nil || !strings.Contains(err.Error(), "column TV") {
			t.Errorf("Insert(%v): err = %v, want one naming TV", v, err)
		}
	}
	var c quel.Counters
	p := New(cat, &c)
	if _, err := ApplyMutation(cat, mustDML(t, "INSERT INTO T VALUES ('NaN')")); err == nil {
		t.Error("INSERT INTO T VALUES ('NaN') was accepted")
	}
	indexed, _, err := run(p, "SELECT TV FROM T WHERE TV = 5")
	if err != nil {
		t.Fatal(err)
	}
	if n := c.IndexScans.Load(); n != 1 {
		t.Errorf("IndexScans = %d, want 1", n)
	}
	want := rowKeys(indexed)
	if len(want) != 10 {
		t.Errorf("TV = 5 gives %d rows, want 10", len(want))
	}
	for _, sql := range []string{
		"SELECT TV FROM T WHERE TV = 5 OR TV = 5",
		"SELECT T.TV FROM T, U WHERE T.TV = U.UV",
		"SELECT T.TV FROM T, U WHERE T.TV >= U.UV AND T.TV <= U.UV",
	} {
		got, _, err := run(p, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if g := rowKeys(got); !slices.Equal(g, want) {
			t.Errorf("%s gives %d rows, TV = 5 gives %d", sql, len(g), len(want))
		}
	}
	distinct, _, err := run(p, "SELECT DISTINCT TV FROM T WHERE TV = 5")
	if err != nil {
		t.Fatal(err)
	}
	if distinct.Len() != 1 {
		t.Errorf("DISTINCT TV where TV = 5 gives %d rows, want 1", distinct.Len())
	}
}

// TestSignedZeroKeys: -0 equals 0, so hashing and grouping must treat
// them as one value, as the comparison operators already do.
func TestSignedZeroKeys(t *testing.T) {
	negZero := relation.Float(math.Copysign(0, -1))
	p := New(floatCatalog(t, map[string][]relation.Value{
		"T": {relation.Float(0), negZero},
		"U": {relation.Float(0)},
	}), nil)
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
