package maintain

import (
	"strings"
	"testing"

	"intensional/internal/dict"
	"intensional/internal/query"
	"intensional/internal/relation"
	"intensional/internal/rules"
	"intensional/internal/shipdb"
	"intensional/internal/sqlparse"
	"intensional/internal/storage"
)

// fixture builds the ship test bed with its dictionary and the paper's
// seventeen rules.
func fixture(t *testing.T) (*storage.Catalog, *dict.Dictionary, *rules.Set) {
	t.Helper()
	cat := shipdb.Catalog()
	d, err := shipdb.Dictionary(cat)
	if err != nil {
		t.Fatal(err)
	}
	return cat, d, shipdb.PaperRules()
}

func mutate(t *testing.T, cat *storage.Catalog, src string) *query.Mutation {
	t.Helper()
	st, err := sqlparse.ParseStatement(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := query.ApplyMutation(cat, st)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// ruleOn finds a rule whose rendering contains every fragment.
func ruleOn(t *testing.T, rs *rules.Set, fragments ...string) *rules.Rule {
	t.Helper()
	for _, r := range rs.Rules() {
		s := r.String()
		all := true
		for _, f := range fragments {
			if !strings.Contains(s, f) {
				all = false
				break
			}
		}
		if all {
			return r
		}
	}
	t.Fatalf("no rule matching %v in:\n%s", fragments, rs)
	return nil
}

func TestInsertCounterexampleMarksStale(t *testing.T) {
	cat, d, rs := fixture(t)
	st := NewState()

	// R2-style rule: CLASS.Displacement in SSBN range implies Type SSBN.
	// Inserting an SSN class with an SSBN-range displacement contradicts
	// every rule whose premise covers 9999 and whose consequence is
	// Type = SSBN.
	m := mutate(t, cat, `INSERT INTO CLASS VALUES ('9901', 'Contradictor', 'SSN', 16600)`)
	st2 := st.ApplyMutation(d, rs, m)

	stale, _ := st2.Counts()
	if stale == 0 {
		t.Fatal("no rule went stale on a contradicting insert")
	}
	r := ruleOn(t, rs, "CLASS.Displacement", "CLASS.Type = SSBN")
	inf := st2.Info(r.ID)
	if inf.Status != Stale || !inf.Definite || inf.Counterexamples != 1 {
		t.Errorf("info = %+v", inf)
	}
	if !strings.Contains(inf.Example, "Contradictor") {
		t.Errorf("example = %q", inf.Example)
	}
	// The original state is untouched (immutability).
	if s, _ := st.Counts(); s != 0 {
		t.Error("ApplyMutation mutated the receiver")
	}
}

func TestConformingInsertKeepsRulesValid(t *testing.T) {
	cat, d, rs := fixture(t)
	// An SSN class whose displacement sits inside the SSN rules' ranges
	// (2145..6955) and outside the SSBN premises.
	m := mutate(t, cat, `INSERT INTO CLASS VALUES ('9902', 'Conformer', 'SSN', 5000)`)
	st := NewState().ApplyMutation(d, rs, m)
	for _, r := range rs.Rules() {
		if inf := st.Info(r.ID); inf.Status == Stale && inf.Definite {
			t.Errorf("R%d definitely stale after a conforming insert: %+v (%s)", r.ID, inf, r)
		}
	}
}

func TestDeleteMarksRefinable(t *testing.T) {
	cat, d, rs := fixture(t)
	m := mutate(t, cat, `DELETE FROM CLASS WHERE Class = '0101'`) // Ohio, SSBN, 16600
	st := NewState().ApplyMutation(d, rs, m)
	stale, refinable := st.Counts()
	if stale != 0 {
		t.Errorf("deletes must never mark stale, got %d", stale)
	}
	if refinable == 0 {
		t.Error("deleting a covered tuple marked nothing refinable")
	}
	r := ruleOn(t, rs, "CLASS.Displacement", "CLASS.Type = SSBN")
	if st.Info(r.ID).Status != Refinable {
		t.Errorf("R%d = %v, want refinable", r.ID, st.Info(r.ID).Status)
	}
	// Refinable rules are still served.
	if st.Serving(rs).Len() != rs.Len() {
		t.Errorf("serving set lost rules: %d of %d", st.Serving(rs).Len(), rs.Len())
	}
}

func TestServingFiltersStaleKeepsIDs(t *testing.T) {
	cat, d, rs := fixture(t)
	m := mutate(t, cat, `INSERT INTO CLASS VALUES ('9901', 'Contradictor', 'SSN', 16600)`)
	st := NewState().ApplyMutation(d, rs, m)
	serving := st.Serving(rs)
	if serving.Len() >= rs.Len() {
		t.Fatalf("serving %d rules, full set %d", serving.Len(), rs.Len())
	}
	for _, r := range serving.Rules() {
		if st.IsStale(r.ID) {
			t.Errorf("stale R%d served", r.ID)
		}
		orig, ok := rs.ByID(r.ID)
		if !ok || orig != r {
			t.Errorf("serving set renumbered R%d", r.ID)
		}
	}
	// All-valid state serves the identical set object.
	if NewState().Serving(rs) != rs {
		t.Error("all-valid Serving should return the full set unchanged")
	}
}

func TestIntraRuleUnaffectedByOtherTable(t *testing.T) {
	cat, d, rs := fixture(t)
	// Single-relation rules over CLASS cannot be touched by SUBMARINE
	// inserts; multi-relation rules legitimately can (new join tuples).
	m := mutate(t, cat, `INSERT INTO SUBMARINE VALUES ('SSN999', 'Phantom', '0204')`)
	st := NewState().ApplyMutation(d, rs, m)
	for _, r := range rs.Rules() {
		intra := true
		rel := r.RHS.Attr.Relation
		for _, c := range r.LHS {
			if !strings.EqualFold(c.Attr.Relation, rel) {
				intra = false
			}
		}
		if intra && !strings.EqualFold(rel, shipdb.Submarine) && st.Info(r.ID).Status != Valid {
			t.Errorf("intra %s rule R%d affected by SUBMARINE insert: %v", rel, r.ID, st.Info(r.ID).Status)
		}
	}
}

func TestInterObjectConservativeStaleness(t *testing.T) {
	cat, d, rs := fixture(t)
	// INSTALL join rules: installing a BQS-04 sonar on an SSBN-class
	// ship contradicts R17 "if SONAR.Sonar = BQS-04 then CLASS.Type =
	// SSN". The new INSTALL tuple alone cannot prove it, so the mark is
	// conservative (not definite).
	m := mutate(t, cat, `INSERT INTO INSTALL VALUES ('SSBN130', 'BQS-04')`)
	st := NewState().ApplyMutation(d, rs, m)
	r := ruleOn(t, rs, "SONAR.Sonar = BQS-04", "CLASS.Type")
	inf := st.Info(r.ID)
	if inf.Status != Stale {
		t.Fatalf("inter-object rule R%d not stale: %+v", r.ID, inf)
	}
	if inf.Definite {
		t.Error("single-table evidence cannot be definite for a join rule")
	}
}

func TestUpdateIsDeletePlusInsert(t *testing.T) {
	cat, d, rs := fixture(t)
	m := mutate(t, cat, `UPDATE CLASS SET Displacement = 16600 WHERE Class = '0215'`) // Barbel SSN
	st := NewState().ApplyMutation(d, rs, m)
	stale, refinable := st.Counts()
	if stale == 0 {
		t.Error("update moving an SSN into the SSBN displacement range must stale a rule")
	}
	_ = refinable
	r := ruleOn(t, rs, "CLASS.Displacement", "CLASS.Type = SSBN")
	if !st.Info(r.ID).Definite {
		t.Errorf("expected a definite counterexample, got %+v", st.Info(r.ID))
	}
}

func TestSchemeKeys(t *testing.T) {
	cat, d, rs := fixture(t)
	m := mutate(t, cat, `INSERT INTO CLASS VALUES ('9901', 'Contradictor', 'SSN', 16600)`)
	st := NewState().ApplyMutation(d, rs, m)
	keys := st.SchemeKeys(rs)
	if len(keys) == 0 {
		t.Fatal("no schemes to re-induce")
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Errorf("scheme keys unsorted: %v", keys)
		}
	}
	if NewState().SchemeKeys(rs) != nil {
		t.Error("all-valid state has no schemes to re-induce")
	}
}

func TestNullInsertIsConservative(t *testing.T) {
	cat, d, rs := fixture(t)
	m := mutate(t, cat, `INSERT INTO CLASS (Class, Type) VALUES ('9903', 'SSBN')`)
	st := NewState().ApplyMutation(d, rs, m)
	// NULL displacement: premise "Displacement in range" is not
	// satisfied, so displacement-premise rules stay valid; rules with
	// consequence on Displacement see an out-of-range (null) value and
	// go stale conservatively.
	r := ruleOn(t, rs, "CLASS.Displacement", "CLASS.Type = SSBN")
	if got := st.Info(r.ID); got.Status == Stale && got.Definite && strings.HasPrefix(r.String(), "if CLASS.Displacement") {
		t.Errorf("null-premise insert proved a counterexample: %+v", got)
	}
}

func TestValueSemantics(t *testing.T) {
	if Valid.String() != "valid" || Stale.String() != "stale" || Refinable.String() != "refinable" {
		t.Error("status names")
	}
	var s *State
	if s.Info(1).Status != Valid || s.IsStale(1) {
		t.Error("nil state must read as all-valid")
	}
	if st, ref := s.Counts(); st != 0 || ref != 0 {
		t.Error("nil counts")
	}
	if relation.Null().IsNull() != true {
		t.Error("sanity")
	}
}

// TestWithheldRelationRoundTrip checks that the schemes awaiting
// re-induction survive encoding, that a restored state keeps them
// through later mutations, and that a state with none encodes nothing.
func TestWithheldRelationRoundTrip(t *testing.T) {
	cat, d, rs := fixture(t)
	if NewState().WithheldRelation(rs) != nil {
		t.Error("an all-valid state encoded a withheld relation")
	}
	st := NewState().ApplyMutation(d, rs, mutate(t, cat, `INSERT INTO CLASS VALUES ('9901', 'Contradictor', 'SSN', 16600)`))
	want := st.SchemeKeys(rs)
	if len(want) == 0 {
		t.Fatal("contradictor staled no scheme")
	}
	restored, err := Restore(st.WithheldRelation(rs))
	if err != nil {
		t.Fatal(err)
	}
	// The restored state's rule base is the serving set: the stale rules
	// are gone, yet their schemes are still awaited.
	serving := st.Serving(rs)
	if got := restored.SchemeKeys(serving); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("restored schemes %v, want %v", got, want)
	}
	if stale, _ := restored.Counts(); stale != 0 {
		t.Errorf("restored state counts %d stale rules, want 0", stale)
	}
	after := restored.ApplyMutation(d, serving, mutate(t, cat, `INSERT INTO SONAR VALUES ('TST-01', 'BQQ')`))
	for _, k := range want {
		found := false
		for _, g := range after.SchemeKeys(serving) {
			found = found || g == k
		}
		if !found {
			t.Errorf("a later mutation dropped withheld scheme %s", k)
		}
	}

	bad := relation.New(WithheldRelName, relation.MustSchema(relation.Column{Name: "Scheme", Type: relation.TInt}))
	if _, err := Restore(bad); err == nil {
		t.Error("Restore accepted a non-string scheme column")
	}
}
