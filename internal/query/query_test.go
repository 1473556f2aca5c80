package query

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"intensional/internal/quel"
	"intensional/internal/relation"
	"intensional/internal/shipdb"
	"intensional/internal/storage"
)

// Example1SQL..Example3SQL are the paper's Section 6 queries.
const (
	Example1SQL = `
		SELECT SUBMARINE.ID, SUBMARINE.NAME, SUBMARINE.CLASS, CLASS.TYPE
		FROM SUBMARINE, CLASS
		WHERE SUBMARINE.CLASS = CLASS.CLASS
		AND CLASS.DISPLACEMENT > 8000`
	Example2SQL = `
		SELECT SUBMARINE.NAME, SUBMARINE.CLASS
		FROM SUBMARINE, CLASS
		WHERE SUBMARINE.CLASS = CLASS.CLASS
		AND CLASS.TYPE = "SSBN"`
	Example3SQL = `
		SELECT SUBMARINE.NAME, SUBMARINE.CLASS, CLASS.TYPE
		FROM SUBMARINE, CLASS, INSTALL
		WHERE SUBMARINE.CLASS = CLASS.CLASS
		AND SUBMARINE.ID = INSTALL.SHIP
		AND INSTALL.SONAR = "BQS-04"`
)

// run prepares sql as written and executes it, returning the extensional
// answer with the query's analysis.
func run(p *Processor, sql string) (*relation.Relation, *Analysis, error) {
	prep, err := p.Prepare(sql, nil)
	if err != nil {
		return nil, nil, err
	}
	rel, err := prep.Run()
	return rel, prep.Analysis, err
}

func rowsAsStrings(r *relation.Relation) []string {
	out := make([]string, r.Len())
	for i, t := range r.Rows() {
		parts := make([]string, len(t))
		for j, v := range t {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

func expectRows(t *testing.T, got *relation.Relation, want []string) {
	t.Helper()
	sort.Strings(want)
	gotRows := rowsAsStrings(got)
	if len(gotRows) != len(want) {
		t.Fatalf("got %d rows, want %d:\n%s", len(gotRows), len(want), got)
	}
	for i := range want {
		if gotRows[i] != want[i] {
			t.Errorf("row %d = %q, want %q", i, gotRows[i], want[i])
		}
	}
}

// TestExample1Extensional reproduces the paper's Example 1 extensional
// answer exactly.
func TestExample1Extensional(t *testing.T) {
	p := New(shipdb.Catalog(), nil)
	rel, an, err := run(p, Example1SQL)
	if err != nil {
		t.Fatal(err)
	}
	expectRows(t, rel, []string{
		"SSBN730|Rhode Island|0101|SSBN",
		"SSBN130|Typhoon|1301|SSBN",
	})
	if !an.Conjunctive {
		t.Error("Example 1 is conjunctive")
	}
	if len(an.Joins) != 1 || an.Joins[0].String() != "SUBMARINE.Class = CLASS.Class" {
		t.Errorf("joins = %v", an.Joins)
	}
	if len(an.Restrictions) != 1 {
		t.Fatalf("restrictions = %v", an.Restrictions)
	}
	r := an.Restrictions[0]
	if r.Attr.String() != "CLASS.Displacement" || r.Op != ">" || !r.Val.Equal(relation.Int(8000)) {
		t.Errorf("restriction = %+v", r)
	}
	if !r.HasInterval {
		t.Error("restriction should have an interval form")
	}
}

// TestExample2Extensional reproduces Example 2's seven SSBN ships.
func TestExample2Extensional(t *testing.T) {
	p := New(shipdb.Catalog(), nil)
	rel, an, err := run(p, Example2SQL)
	if err != nil {
		t.Fatal(err)
	}
	expectRows(t, rel, []string{
		"Nathaniel Hale|0103",
		"Daniel Boone|0103",
		"Sam Rayburn|0103",
		"Lewis and Clark|0102",
		"Mariano G. Vallejo|0102",
		"Rhode Island|0101",
		"Typhoon|1301",
	})
	if len(an.Restrictions) != 1 || an.Restrictions[0].Op != "=" {
		t.Errorf("restrictions = %v", an.Restrictions)
	}
}

// TestExample3Extensional reproduces Example 3's four BQS-04 ships.
func TestExample3Extensional(t *testing.T) {
	p := New(shipdb.Catalog(), nil)
	rel, an, err := run(p, Example3SQL)
	if err != nil {
		t.Fatal(err)
	}
	expectRows(t, rel, []string{
		"Bonefish|0215|SSN",
		"Seadragon|0212|SSN",
		"Snook|0209|SSN",
		"Robert E. Lee|0208|SSN",
	})
	if len(an.Joins) != 2 {
		t.Errorf("joins = %v", an.Joins)
	}
	if len(an.Tables) != 3 {
		t.Errorf("tables = %v", an.Tables)
	}
}

func TestSelectStarAndDistinct(t *testing.T) {
	p := New(shipdb.Catalog(), nil)
	rel, _, err := run(p, "SELECT * FROM TYPE")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 || rel.Schema().Len() != 2 {
		t.Errorf("SELECT * FROM TYPE: %d rows, %d cols", rel.Len(), rel.Schema().Len())
	}
	rel, _, err = run(p, "SELECT DISTINCT TYPE FROM CLASS")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Errorf("DISTINCT gave %d rows", rel.Len())
	}
}

func TestOrderBy(t *testing.T) {
	p := New(shipdb.Catalog(), nil)
	rel, _, err := run(p, "SELECT Class, Displacement FROM CLASS ORDER BY Displacement DESC")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Row(0)[0].Str() != "1301" {
		t.Errorf("first row %v, want class 1301 (30000 tons)", rel.Row(0))
	}
	rel, _, err = run(p, "SELECT Class FROM CLASS ORDER BY Class ASC")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Row(0)[0].Str() != "0101" {
		t.Errorf("first row %v, want 0101", rel.Row(0))
	}
}

func TestAliasesAndUnqualified(t *testing.T) {
	p := New(shipdb.Catalog(), nil)
	rel, an, err := run(p, `SELECT s.Name, c.Type FROM SUBMARINE s, CLASS c
		WHERE s.Class = c.Class AND Displacement > 8000`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Errorf("aliased query: %d rows", rel.Len())
	}
	// Analysis must resolve aliases back to real relation names.
	if an.Restrictions[0].Attr.Relation != "CLASS" {
		t.Errorf("restriction relation = %q", an.Restrictions[0].Attr.Relation)
	}
	if an.Joins[0].L.Relation != "SUBMARINE" {
		t.Errorf("join left relation = %q", an.Joins[0].L.Relation)
	}
}

func TestColumnAlias(t *testing.T) {
	p := New(shipdb.Catalog(), nil)
	rel, _, err := run(p, "SELECT Class AS ShipClass FROM CLASS")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Schema().Names()[0] != "ShipClass" {
		t.Errorf("aliased column = %v", rel.Schema().Names())
	}
}

func TestAmbiguousAndUnknownColumns(t *testing.T) {
	p := New(shipdb.Catalog(), nil)
	if _, _, err := run(p, "SELECT Class FROM SUBMARINE, CLASS WHERE SUBMARINE.Class = CLASS.Class"); err == nil {
		t.Error("ambiguous unqualified column should error")
	}
	if _, _, err := run(p, "SELECT Nope FROM CLASS"); err == nil {
		t.Error("unknown column should error")
	}
	if _, _, err := run(p, "SELECT X.Class FROM CLASS"); err == nil {
		t.Error("unknown table qualifier should error")
	}
	if _, _, err := run(p, "SELECT Class FROM NOPE"); err == nil {
		t.Error("unknown table should error")
	}
	if _, _, err := run(p, "SELECT Class FROM CLASS, CLASS"); err == nil {
		t.Error("duplicate binding should error")
	}
}

func TestNonConjunctiveAnalysis(t *testing.T) {
	p := New(shipdb.Catalog(), nil)
	_, an, err := run(p, `SELECT Class FROM CLASS WHERE Type = "SSBN" OR Displacement > 8000`)
	if err != nil {
		t.Fatal(err)
	}
	if an.Conjunctive {
		t.Error("disjunctive WHERE must be flagged non-conjunctive")
	}
}

func TestFlippedLiteralComparison(t *testing.T) {
	p := New(shipdb.Catalog(), nil)
	rel, an, err := run(p, "SELECT Class FROM CLASS WHERE 8000 < Displacement")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Errorf("flipped comparison: %d rows", rel.Len())
	}
	if an.Restrictions[0].Op != ">" {
		t.Errorf("flipped op = %q, want >", an.Restrictions[0].Op)
	}
}

func TestNotEqualRestrictionHasNoInterval(t *testing.T) {
	p := New(shipdb.Catalog(), nil)
	_, an, err := run(p, `SELECT Class FROM CLASS WHERE Type != "SSN"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Restrictions) != 1 || an.Restrictions[0].HasInterval {
		t.Errorf("!= restriction should have no interval: %+v", an.Restrictions)
	}
	if !an.Conjunctive {
		t.Error("a != conjunct is still conjunctive")
	}
}

func TestEmptyCatalogProcessor(t *testing.T) {
	p := New(storage.NewCatalog(), nil)
	if _, _, err := run(p, "SELECT a FROM b"); err == nil {
		t.Error("query on empty catalog should error")
	}
	if _, _, err := run(p, "garbage"); err == nil {
		t.Error("unparseable query should error")
	}
}

// bigCatalog holds BIG(K, G) with K = 0..199, above the size at which
// the planner indexes a selective condition.
func bigCatalog() *storage.Catalog {
	big := relation.New("BIG", relation.MustSchema(
		relation.Column{Name: "K", Type: relation.TInt},
		relation.Column{Name: "G", Type: relation.TInt},
	))
	for i := 0; i < 200; i++ {
		big.MustInsert(relation.Int(int64(i)), relation.Int(int64(i%7)))
	}
	cat := storage.NewCatalog()
	cat.Put(big)
	return cat
}

// bigIndex returns BIG's index on K, the one every statement on BIG.K
// is served by.
func bigIndex(t *testing.T, cat *storage.Catalog) *relation.Index {
	t.Helper()
	rel, err := cat.Get("BIG")
	if err != nil {
		t.Fatal(err)
	}
	ix := rel.Index(0)
	return ix
}

// TestProcessorSharesIndexes: an index one statement builds serves the
// next — one index on BIG.K, two index scans.
func TestProcessorSharesIndexes(t *testing.T) {
	var c quel.Counters
	cat := bigCatalog()
	p := New(cat, &c)
	var built *relation.Index
	for _, sql := range []string{
		"SELECT K FROM BIG WHERE K = 42",
		"SELECT G FROM BIG WHERE K = 7",
	} {
		rel, _, err := run(p, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if rel.Len() != 1 {
			t.Errorf("%s: %d rows, want 1", sql, rel.Len())
		}
		ix := bigIndex(t, cat)
		if built == nil {
			built = ix
		} else if ix != built {
			t.Errorf("%s rebuilt the index; want one shared index", sql)
		}
	}
	if n := c.IndexScans.Load(); n != 2 {
		t.Errorf("IndexScans = %d, want 2", n)
	}
}

// TestProcessorConcurrentPrepare: one processor's planner serves
// concurrent Prepare and Run calls; every run is counted and all of them
// share one index.
func TestProcessorConcurrentPrepare(t *testing.T) {
	var c quel.Counters
	cat := bigCatalog()
	p := New(cat, &c)
	big, err := cat.Get("BIG")
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	shared := make([]*relation.Index, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sql := fmt.Sprintf("SELECT G FROM BIG WHERE K = %d", w)
			rel, _, err := run(p, sql)
			if err != nil {
				t.Errorf("%s: %v", sql, err)
				return
			}
			if rel.Len() != 1 || rel.Row(0)[0].Int64() != int64(w%7) {
				t.Errorf("%s: rows %v", sql, rel.Rows())
			}
			shared[w] = big.Index(0)
		}(w)
	}
	wg.Wait()
	for w, ix := range shared {
		if ix == nil || ix != shared[0] {
			t.Errorf("worker %d saw a different index on BIG.K; want one shared index", w)
		}
	}
	if n := c.IndexScans.Load(); n != workers {
		t.Errorf("IndexScans = %d, want %d", n, workers)
	}
}
