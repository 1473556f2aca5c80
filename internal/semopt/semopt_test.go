package semopt_test

import (
	"strings"
	"testing"

	"intensional/internal/dict"
	"intensional/internal/induct"
	"intensional/internal/query"
	"intensional/internal/relation"
	"intensional/internal/rules"
	"intensional/internal/semopt"
	"intensional/internal/shipdb"
)

func shipSetup(t *testing.T) (*dict.Dictionary, *query.Processor) {
	t.Helper()
	cat := shipdb.Catalog()
	d, err := shipdb.Dictionary(cat)
	if err != nil {
		t.Fatal(err)
	}
	set, err := induct.New(d, induct.Options{Nc: 3}).InduceAll()
	if err != nil {
		t.Fatal(err)
	}
	d.SetRules(set)
	return d, query.New(cat, nil, nil)
}

func analyse(t *testing.T, d *dict.Dictionary, q *query.Processor, sql string) *query.Rewrites {
	t.Helper()
	prep, err := q.Prepare(sql, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := semopt.Analyze(prep.Analysis, d)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestImpliedFilter: Example 1's condition implies Type = SSBN, an extra
// filter a partitioned store could exploit.
func TestImpliedFilter(t *testing.T) {
	d, q := shipSetup(t)
	rep := analyse(t, d, q, `SELECT SUBMARINE.ID FROM SUBMARINE, CLASS
		WHERE SUBMARINE.CLASS = CLASS.CLASS AND CLASS.DISPLACEMENT > 8000`)
	if rep.Empty {
		t.Fatal("not empty")
	}
	found := false
	for _, imp := range rep.Implied {
		if imp.Attr.EqualFold(rules.Attr("CLASS", "Type")) && imp.Op == "=" &&
			imp.Val.Equal(relation.String("SSBN")) {
			found = true
		}
	}
	if !found {
		t.Errorf("implied = %v", rep.Implied)
	}
	if !strings.Contains(rep.String(), "implied filter: CLASS.Type = \"SSBN\"") {
		t.Errorf("report = %q", rep.String())
	}
}

// TestEmptyProof: a condition outside the active domain proves the
// answer empty without scanning.
func TestEmptyProof(t *testing.T) {
	d, q := shipSetup(t)
	rep := analyse(t, d, q, `SELECT Class FROM CLASS WHERE Displacement < 2000`)
	if !rep.Empty || len(rep.Because) != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if !strings.Contains(rep.String(), "empty: no stored value satisfies") {
		t.Errorf("report = %q", rep.String())
	}
}

// TestRedundantRestriction: "Displacement > 3000 AND Displacement > 8000"
// makes the first restriction droppable.
func TestRedundantRestriction(t *testing.T) {
	d, q := shipSetup(t)
	rep := analyse(t, d, q, `SELECT Class FROM CLASS
		WHERE Displacement > 3000 AND Displacement > 8000`)
	if len(rep.Redundant) != 1 || rep.Redundant[0] != 0 {
		t.Errorf("redundant = %v", rep.Redundant)
	}
}

func TestNoAdvice(t *testing.T) {
	d, q := shipSetup(t)
	rep := analyse(t, d, q, `SELECT Class FROM CLASS WHERE Displacement > 5000`)
	if rep.Empty || len(rep.Implied) != 0 || len(rep.Redundant) != 0 {
		t.Errorf("report = %+v", rep)
	}
	if !strings.Contains(rep.String(), "no semantic optimization applies") {
		t.Errorf("report = %q", rep.String())
	}
}

func TestNonConjunctiveSkipped(t *testing.T) {
	d, q := shipSetup(t)
	rep := analyse(t, d, q, `SELECT Class FROM CLASS WHERE Type = "SSBN" OR Displacement > 8000`)
	if rep.Empty || len(rep.Implied) != 0 {
		t.Errorf("report = %+v", rep)
	}
}
