package query

import (
	"testing"

	"intensional/internal/relation"
	"intensional/internal/shipdb"
)

// TestGroupByTypeSummary: the classic summarised answer over the ship
// test bed — per-type class counts and displacement ranges, which is
// Table 1's shape computed by SQL instead of induction.
func TestGroupByTypeSummary(t *testing.T) {
	p := New(shipdb.Catalog(), nil, nil)
	rel, an, err := run(p, `
		SELECT Type, COUNT(*), MIN(Displacement), MAX(Displacement), AVG(Displacement)
		FROM CLASS GROUP BY Type ORDER BY Type`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Fatalf("groups = %d:\n%s", rel.Len(), rel)
	}
	// SSBN: 4 classes, 7250..30000; SSN: 9 classes, 2145..6955.
	row := rel.Row(0)
	if row[0].Str() != "SSBN" || row[1].Int64() != 4 ||
		row[2].Int64() != 7250 || row[3].Int64() != 30000 {
		t.Errorf("SSBN row = %v", row)
	}
	avg := row[4].Float64()
	if avg < 15000 || avg > 16000 { // (16600+7250+7250+30000)/4 = 15275
		t.Errorf("SSBN avg = %v", avg)
	}
	row = rel.Row(1)
	if row[0].Str() != "SSN" || row[1].Int64() != 9 ||
		row[2].Int64() != 2145 || row[3].Int64() != 6955 {
		t.Errorf("SSN row = %v", row)
	}
	if an == nil || len(an.Projection) != 1 {
		t.Errorf("analysis projection = %v", an.Projection)
	}
}

func TestAggregateNoGroupBy(t *testing.T) {
	p := New(shipdb.Catalog(), nil, nil)
	rel, _, err := run(p, `SELECT COUNT(*), SUM(Displacement) FROM CLASS WHERE Type = "SSBN"`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 {
		t.Fatalf("rows = %d", rel.Len())
	}
	if rel.Row(0)[0].Int64() != 4 || rel.Row(0)[1].Int64() != 61100 {
		t.Errorf("row = %v", rel.Row(0))
	}
	names := rel.Schema().Names()
	if names[0] != "count" || names[1] != "sum_Displacement" {
		t.Errorf("labels = %v", names)
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	p := New(shipdb.Catalog(), nil, nil)
	rel, _, err := run(p, `SELECT COUNT(*), MIN(Displacement) FROM CLASS WHERE Displacement > 999999`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 {
		t.Fatalf("rows = %d", rel.Len())
	}
	if rel.Row(0)[0].Int64() != 0 || !rel.Row(0)[1].IsNull() {
		t.Errorf("row = %v", rel.Row(0))
	}
	// Grouped aggregates over empty input produce zero groups.
	rel, _, err = run(p, `SELECT Type, COUNT(*) FROM CLASS WHERE Displacement > 999999 GROUP BY Type`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 0 {
		t.Errorf("grouped rows = %d, want 0", rel.Len())
	}
}

func TestCountColumnSkipsNulls(t *testing.T) {
	cat := shipdb.Catalog()
	cls, _ := cat.Get("CLASS")
	cls.MustInsert(relation.String("9999"), relation.Null(), relation.String("SSN"), relation.Null())
	p := New(cat, nil, nil)
	rel, _, err := run(p, `SELECT COUNT(*), COUNT(Displacement) FROM CLASS`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Row(0)[0].Int64() != 14 || rel.Row(0)[1].Int64() != 13 {
		t.Errorf("counts = %v", rel.Row(0))
	}
}

func TestAggregateWithJoinAndAlias(t *testing.T) {
	p := New(shipdb.Catalog(), nil, nil)
	rel, _, err := run(p, `
		SELECT CLASS.Type, COUNT(*) AS ships
		FROM SUBMARINE, CLASS
		WHERE SUBMARINE.Class = CLASS.Class
		GROUP BY CLASS.Type
		ORDER BY ships DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Fatalf("groups = %d", rel.Len())
	}
	if rel.Schema().Names()[1] != "ships" {
		t.Errorf("alias = %v", rel.Schema().Names())
	}
	// 17 SSN ships, 7 SSBN ships; DESC puts SSN first.
	if rel.Row(0)[0].Str() != "SSN" || rel.Row(0)[1].Int64() != 17 {
		t.Errorf("row 0 = %v", rel.Row(0))
	}
	if rel.Row(1)[1].Int64() != 7 {
		t.Errorf("row 1 = %v", rel.Row(1))
	}
}

func TestAvgOverFloats(t *testing.T) {
	cat := shipdb.Catalog()
	r := relation.New("M", relation.MustSchema(
		relation.Column{Name: "G", Type: relation.TString},
		relation.Column{Name: "F", Type: relation.TFloat},
	))
	r.MustInsert(relation.String("a"), relation.Float(1.5))
	r.MustInsert(relation.String("a"), relation.Float(2.5))
	cat.Put(r)
	p := New(cat, nil, nil)
	rel, _, err := run(p, `SELECT G, AVG(F), SUM(F) FROM M GROUP BY G`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Row(0)[1].Float64() != 2.0 || rel.Row(0)[2].Float64() != 4.0 {
		t.Errorf("row = %v", rel.Row(0))
	}
}

func TestAggregateErrors(t *testing.T) {
	p := New(shipdb.Catalog(), nil, nil)
	bad := []string{
		`SELECT Class, COUNT(*) FROM CLASS`,              // Class not grouped
		`SELECT * FROM CLASS GROUP BY Type`,              // star with grouping
		`SELECT DISTINCT COUNT(*) FROM CLASS`,            // distinct with aggregate
		`SELECT COUNT(*) FROM CLASS ORDER BY Type`,       // order by non-output column
		`SELECT COUNT(Nope) FROM CLASS`,                  // unknown aggregate arg
		`SELECT Type, COUNT(*) FROM CLASS GROUP BY Nope`, // unknown group column
		`SELECT SUM(*) FROM CLASS`,                       // only COUNT takes *
		`SELECT MIN(Type FROM CLASS`,                     // unterminated call
	}
	for _, sql := range bad {
		if _, _, err := run(p, sql); err == nil {
			t.Errorf("Run(%q): expected error", sql)
		}
	}
}

func TestGroupByWithoutAggregates(t *testing.T) {
	// GROUP BY alone acts as DISTINCT over the group columns.
	p := New(shipdb.Catalog(), nil, nil)
	rel, _, err := run(p, `SELECT Type FROM CLASS GROUP BY Type`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Errorf("rows = %d:\n%s", rel.Len(), rel)
	}
}
