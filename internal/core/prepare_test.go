package core_test

import (
	"reflect"
	"strings"
	"testing"

	"intensional/internal/answer"
	"intensional/internal/core"
	"intensional/internal/induct"
	"intensional/internal/infer"
)

func inducedShipSystem(t *testing.T) *core.System {
	t.Helper()
	s := shipSystem(t)
	if _, err := s.Induce(induct.Options{Nc: 3}); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestExplainReturnsPlan: every query shape the executor accepts gets a
// plan — selection, join, aggregate, GROUP BY, ORDER BY, DISTINCT, star —
// whose root is the operator that runs last; a statement the executor
// would reject is rejected at prepare, not first at run.
func TestExplainReturnsPlan(t *testing.T) {
	s := inducedShipSystem(t)
	queries := []struct {
		sql     string
		root    string // expected root kind; "" for any
		under   string // expected kind of the root's first child; "" for any
		wantErr bool
	}{
		{sql: `SELECT * FROM CLASS`},
		{sql: `SELECT Class FROM CLASS WHERE Displacement > 5000`},
		{sql: `SELECT DISTINCT Type FROM CLASS`},
		{sql: `SELECT Class, Displacement FROM CLASS ORDER BY Displacement DESC`},
		{sql: `SELECT SUBMARINE.NAME FROM SUBMARINE, CLASS
			WHERE SUBMARINE.CLASS = CLASS.CLASS AND CLASS.DISPLACEMENT > 8000`},
		{sql: `SELECT COUNT(*) FROM SUBMARINE`},
		{sql: `SELECT Type, COUNT(*), AVG(Displacement) FROM CLASS GROUP BY Type`},
		{sql: `SELECT Class FROM CLASS WHERE Type = "SSBN" OR Displacement > 8000`},
		{sql: `SELECT Class FROM CLASS WHERE Displacement < 2000`},
		{sql: `SELECT Type, COUNT(*) FROM CLASS GROUP BY Type ORDER BY Type DESC`, root: "Sort", under: "Aggregate"},
		{sql: `SELECT Type, COUNT(*) FROM CLASS GROUP BY Type ORDER BY Displacement`, wantErr: true},
		{sql: `SELECT Type, COUNT(*) FROM CLASS c GROUP BY c.Type ORDER BY c.Type DESC`, root: "Sort", under: "Aggregate"},
		{sql: `SELECT Type, COUNT(*) FROM CLASS GROUP BY Type ORDER BY X.Type`, wantErr: true},
		{sql: `SELECT Type, COUNT(*) FROM CLASS c GROUP BY Type ORDER BY CLASS.Type`, wantErr: true},
	}
	for _, q := range queries {
		sql := q.sql
		pl, err := s.Explain(sql)
		if q.wantErr {
			if err == nil {
				t.Errorf("Explain(%q) = %s, want a prepare error", sql, pl)
			}
			if _, err := s.Prepare(sql); err == nil {
				t.Errorf("Prepare(%q) succeeded, want an error", sql)
			}
			continue
		}
		if err != nil {
			t.Errorf("Explain(%q): %v", sql, err)
			continue
		}
		if pl.Root == nil {
			t.Errorf("Explain(%q): nil root", sql)
			continue
		}
		if pl.String() == "" {
			t.Errorf("Explain(%q): empty rendering", sql)
		}
		if q.root != "" && pl.Root.Kind() != q.root {
			t.Errorf("Explain(%q): root %s, want %s\n%s", sql, pl.Root.Kind(), q.root, pl)
		}
		if q.under != "" {
			if kids := pl.Root.Children(); len(kids) == 0 || kids[0].Kind() != q.under {
				t.Errorf("Explain(%q): root's input is not %s\n%s", sql, q.under, pl)
			}
		}
		// The plan must be for a runnable statement.
		resp, err := s.Query(sql, answer.Combined)
		if err != nil {
			t.Errorf("Query(%q) after Explain: %v", sql, err)
			continue
		}
		// The answer carries the one inference result the plan was
		// rewritten from, equal to a fresh derivation.
		prep, err := s.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		want, err := infer.New(s.Dictionary()).Derive(prep.Analysis)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resp.Inference, want) {
			t.Errorf("Query(%q) inference = %+v, want %+v", sql, resp.Inference, want)
		}
		if empty := pl.Root.Kind() == "Empty"; empty != resp.Inference.Empty {
			t.Errorf("Explain(%q): Empty root %v, inference proves empty %v", sql, empty, resp.Inference.Empty)
		}
	}
}

// TestEmptyShortCircuitNoScan: a provably-empty restriction must answer
// without touching any relation — no index scans, no full scans.
func TestEmptyShortCircuitNoScan(t *testing.T) {
	s := inducedShipSystem(t)
	before := s.PlannerStats()

	// Every CLASS displacement is >= 3000 under the induced rules, so
	// this is provably empty.
	resp, err := s.Query(`SELECT Class FROM CLASS WHERE Displacement < 2000`, answer.Combined)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Extensional.Len() != 0 {
		t.Fatalf("rows = %d, want 0", resp.Extensional.Len())
	}
	after := s.PlannerStats()
	if after.FullScans != before.FullScans || after.IndexScans != before.IndexScans {
		t.Errorf("provably-empty query scanned: full %d→%d, index %d→%d",
			before.FullScans, after.FullScans, before.IndexScans, after.IndexScans)
	}

	pl, err := s.Explain(`SELECT Class FROM CLASS WHERE Displacement < 2000`)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Root.Kind() != "Empty" {
		t.Errorf("plan root = %s, want Empty\n%s", pl.Root.Kind(), pl)
	}
	if len(pl.Rewrites) == 0 || pl.Rewrites[0].Kind != "empty" {
		t.Errorf("rewrites = %+v, want an empty rewrite", pl.Rewrites)
	}

	// An aggregate over the provably-empty input still produces its one
	// grand-total row, and still without scanning.
	resp, err = s.Query(`SELECT COUNT(*) FROM CLASS WHERE Displacement < 2000`, answer.Combined)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Extensional.Len() != 1 || resp.Extensional.Row(0)[0].Int64() != 0 {
		t.Fatalf("grand total = %v", resp.Extensional.Rows())
	}
	final := s.PlannerStats()
	if final.FullScans != after.FullScans || final.IndexScans != after.IndexScans {
		t.Errorf("provably-empty aggregate scanned: full %d→%d, index %d→%d",
			after.FullScans, final.FullScans, after.IndexScans, final.IndexScans)
	}
}

// TestExplainShowsImpliedRewrite: Example 1's implied restriction
// (Displacement > 8000 ⇒ Type = SSBN) must appear as a rewrite and as
// an implied conjunct in the plan.
func TestExplainShowsImpliedRewrite(t *testing.T) {
	s := inducedShipSystem(t)
	pl, err := s.Explain(`SELECT SUBMARINE.NAME FROM SUBMARINE, CLASS
		WHERE SUBMARINE.CLASS = CLASS.CLASS AND CLASS.DISPLACEMENT > 8000`)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, rw := range pl.Rewrites {
		if rw.Kind == "implied" && strings.Contains(rw.Detail, "Type") {
			found = true
		}
	}
	if !found {
		t.Errorf("no implied Type rewrite in %+v", pl.Rewrites)
	}
	if !strings.Contains(pl.String(), "implied") {
		t.Errorf("plan rendering lacks the implied mark:\n%s", pl)
	}

	// The rewritten plan must not change the answer.
	resp, err := s.Query(`SELECT SUBMARINE.NAME FROM SUBMARINE, CLASS
		WHERE SUBMARINE.CLASS = CLASS.CLASS AND CLASS.DISPLACEMENT > 8000`, answer.Combined)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Extensional.Len() != 2 {
		t.Errorf("rows = %d, want 2", resp.Extensional.Len())
	}
}

// TestExplainShowsRedundantRewrite: a conjunct subsumed by another is
// dropped from the executed filter and reported.
func TestExplainShowsRedundantRewrite(t *testing.T) {
	s := inducedShipSystem(t)
	sql := `SELECT Class FROM CLASS WHERE Displacement > 3000 AND Displacement > 8000`
	pl, err := s.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, rw := range pl.Rewrites {
		if rw.Kind == "redundant" && strings.Contains(rw.Detail, "dropped") {
			found = true
		}
	}
	if !found {
		t.Errorf("no redundant rewrite in %+v", pl.Rewrites)
	}
	resp, err := s.Query(sql, answer.Combined)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Extensional.Len() != 2 {
		t.Errorf("rows = %d, want 2", resp.Extensional.Len())
	}
}

// TestPreparedStatementCache: the same statement (modulo whitespace)
// prepares once per snapshot; a mutation installs a new snapshot and
// invalidates the cached plan.
func TestPreparedStatementCache(t *testing.T) {
	s := shipSystem(t)
	base := s.PlannerStats()

	p1, err := s.Prepare(`SELECT Class FROM CLASS WHERE Displacement > 5000`)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.Prepare("SELECT Class   FROM CLASS\n\tWHERE Displacement > 5000")
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("whitespace variant missed the plan cache")
	}
	st := s.PlannerStats()
	if hits := st.PlanCacheHits - base.PlanCacheHits; hits != 1 {
		t.Errorf("hits = %d, want 1", hits)
	}
	if misses := st.PlanCacheMisses - base.PlanCacheMisses; misses != 1 {
		t.Errorf("misses = %d, want 1", misses)
	}
	if st.CachedPlans != 1 {
		t.Errorf("cached plans = %d, want 1", st.CachedPlans)
	}

	// Prepared statements run repeatedly with stable results.
	r1, err := p1.Run()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p1.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Len() != r2.Len() {
		t.Errorf("re-run changed row count: %d vs %d", r1.Len(), r2.Len())
	}

	// A mutation installs a new snapshot: the old plan is gone, the next
	// Prepare is a miss against the new version.
	if _, err := s.Apply(t.Context(), `INSERT INTO CLASS VALUES ("1399", "Test", "SSBN", 9000)`); err != nil {
		t.Fatalf("mutation failed: %v", err)
	}
	st2 := s.PlannerStats()
	if st2.CachedPlans != 0 {
		t.Errorf("cached plans after mutation = %d, want 0", st2.CachedPlans)
	}
	if _, err := s.Prepare(`SELECT Class FROM CLASS WHERE Displacement > 5000`); err != nil {
		t.Fatal(err)
	}
	st3 := s.PlannerStats()
	if st3.PlanCacheMisses != st2.PlanCacheMisses+1 {
		t.Errorf("misses after mutation = %d, want %d", st3.PlanCacheMisses, st2.PlanCacheMisses+1)
	}
}

func TestNormalizeSQL(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"  SELECT   x\n\tFROM  t ", "SELECT x FROM t"},
		{"SELECT x FROM t WHERE a = \"A  B\"", "SELECT x FROM t WHERE a = \"A  B\""},
		{"SELECT x\nFROM t WHERE a = 'A\tB'   AND b = \" C \"", "SELECT x FROM t WHERE a = 'A\tB' AND b = \" C \""},
		// One quote kind inside the other is data, not a delimiter.
		{"WHERE a = \"it's  so\"  AND b = 'say \"x  y\"'  ", "WHERE a = \"it's  so\" AND b = 'say \"x  y\"'"},
	} {
		if got := core.NormalizeSQL(c.in); got != c.want {
			t.Errorf("NormalizeSQL(%q) = %q, want %q", c.in, got, c.want)
		}
	}

	// Whitespace inside a literal is data: the statement that finds a
	// value holding a double space and a tab must not run as its
	// collapsed variant, nor share that variant's cache entry.
	s := shipSystem(t)
	if _, err := s.Apply(t.Context(), "INSERT INTO CLASS VALUES (\"1398\", \"Two  Spaces\tTab\", \"SSN\", 4000)"); err != nil {
		t.Fatal(err)
	}
	exact, err := s.Query("SELECT Class FROM CLASS WHERE ClassName = \"Two  Spaces\tTab\"", answer.Combined)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Extensional.Len() != 1 {
		t.Errorf("exact literal found %d rows, want 1", exact.Extensional.Len())
	}
	collapsed, err := s.Query("SELECT Class FROM CLASS WHERE ClassName = \"Two Spaces Tab\"", answer.Combined)
	if err != nil {
		t.Fatal(err)
	}
	if collapsed.Extensional.Len() != 0 {
		t.Errorf("collapsed literal found %d rows, want 0", collapsed.Extensional.Len())
	}
}
