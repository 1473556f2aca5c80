package induct

import (
	"context"
	"strings"
	"testing"

	"intensional/internal/dict"
	"intensional/internal/relation"
	"intensional/internal/rules"
	"intensional/internal/shipdb"
	"intensional/internal/storage"
)

func shipInducer(t *testing.T, opts Options) *Inducer {
	t.Helper()
	d, err := shipdb.Dictionary(shipdb.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	return New(d, opts)
}

// entails reports whether the induced set contains a rule at least as
// strong as want: same consequence, premise on the same attribute, and a
// premise interval covering want's. This is the right fidelity criterion
// because the algorithm may merge adjacent runs the paper printed
// separately (a wider premise implies the narrower rule).
func entails(set *rules.Set, want *rules.Rule) bool {
	for _, r := range set.Rules() {
		if len(r.LHS) != 1 || len(want.LHS) != 1 {
			continue
		}
		if !r.RHS.Attr.EqualFold(want.RHS.Attr) || !r.RHS.Lo.Equal(want.RHS.Lo) || !r.RHS.Hi.Equal(want.RHS.Hi) {
			continue
		}
		if !r.LHS[0].Attr.EqualFold(want.LHS[0].Attr) {
			continue
		}
		if r.LHS[0].Interval().Subsumes(want.LHS[0].Interval()) {
			return true
		}
	}
	return false
}

// TestInduceShipRules is the E1 reproduction: with Nc=3 the ILS induces
// the paper's Section 6 rule set. Documented divergences from the printed
// list, all implied by the paper's own algorithm and data:
//
//   - R14 ("if x.Class = 0203 then y isa BQQ") is satisfied by a single
//     instance (Narwhal), so the support threshold that drops R_new also
//     drops R14; it appears at Nc=1.
//   - R17 is induced in the stronger merged form
//     "BQQ-8 <= Sonar <= BQS-04 then Type = SSN" (BQQ-2/BQQ-5/BQS-12 are
//     removed as inconsistent, leaving BQQ-8 and BQS-04 adjacent).
//   - Two extra consecutive runs with support >= 3 that the paper's list
//     omits: "SSBN130 <= Id <= SSBN629 then SonarType = BQQ" and
//     "BQS-13 <= Sonar <= TACTAS then Type = SSN".
func TestInduceShipRules(t *testing.T) {
	in := shipInducer(t, Options{Nc: 3})
	got, err := in.InduceAll()
	if err != nil {
		t.Fatal(err)
	}
	paper := shipdb.PaperRules()

	var missing []string
	for i, want := range paper.Rules() {
		if i == 13 { // R14, support 1: below Nc=3 by the paper's own rule
			if entails(got, want) {
				t.Errorf("R14 should be pruned at Nc=3")
			}
			continue
		}
		if !entails(got, want) {
			missing = append(missing, want.String())
		}
	}
	if len(missing) > 0 {
		t.Errorf("missing %d paper rules at Nc=3:\n  %s\ninduced:\n%s",
			len(missing), strings.Join(missing, "\n  "), got)
	}

	// The documented extra rules beyond the paper's list.
	extras := []*rules.Rule{
		{
			LHS: []rules.Clause{rules.RangeClause(rules.Attr("SUBMARINE", "Id"),
				relation.String("SSBN130"), relation.String("SSBN629"))},
			RHS: rules.PointClause(rules.Attr("SONAR", "SonarType"), relation.String("BQQ")),
		},
		{
			LHS: []rules.Clause{rules.RangeClause(rules.Attr("SONAR", "Sonar"),
				relation.String("BQS-13"), relation.String("TACTAS"))},
			RHS: rules.PointClause(rules.Attr("CLASS", "Type"), relation.String("SSN")),
		},
	}
	for _, e := range extras {
		found := false
		for _, r := range got.Rules() {
			if r.Equal(e) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("expected the documented extra rule %s", e)
		}
	}
	// 15 paper rules verbatim + merged R17 + 2 extras.
	if got.Len() != 18 {
		t.Errorf("induced %d rules at Nc=3, want 18:\n%s", got.Len(), got)
	}
}

// TestInduceShipRulesNc1 verifies all seventeen paper rules (including
// R14) are entailed when pruning is off.
func TestInduceShipRulesNc1(t *testing.T) {
	in := shipInducer(t, Options{Nc: 1})
	got, err := in.InduceAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range shipdb.PaperRules().Rules() {
		if !entails(got, want) {
			t.Errorf("missing paper rule at Nc=1: %s", want)
		}
	}
	// R_new from Example 2 must be present at Nc=1 ...
	rnew := &rules.Rule{
		LHS: []rules.Clause{rules.PointClause(rules.Attr("CLASS", "Class"), relation.String("1301"))},
		RHS: rules.PointClause(rules.Attr("CLASS", "Type"), relation.String("SSBN")),
	}
	found := false
	for _, r := range got.Rules() {
		if r.Equal(rnew) {
			if r.Support != 1 {
				t.Errorf("R_new support = %d, want 1", r.Support)
			}
			found = true
		}
	}
	if !found {
		t.Errorf("R_new (%s) missing at Nc=1", rnew)
	}
}

func TestRuleSupports(t *testing.T) {
	in := shipInducer(t, Options{Nc: 3})
	got, err := in.InduceAll()
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check the supports derived in the paper's narrative.
	wantSupports := map[string]int{
		"if 0101 <= CLASS.Class <= 0103 then CLASS.Type = SSBN":             3, // R5
		"if 0201 <= CLASS.Class <= 0215 then CLASS.Type = SSN":              9, // R6
		"if 2145 <= CLASS.Displacement <= 6955 then CLASS.Type = SSN":       9, // R8
		"if 7250 <= CLASS.Displacement <= 30000 then CLASS.Type = SSBN":     4, // R9
		"if SSN604 <= SUBMARINE.Id <= SSN671 then SONAR.SonarType = BQQ":    7, // R13
		"if BQQ-8 <= SONAR.Sonar <= BQS-04 then CLASS.Type = SSN":           5, // merged R17
		"if SSBN623 <= SUBMARINE.Id <= SSBN635 then SUBMARINE.Class = 0103": 3, // R1
		"if Skate <= CLASS.ClassName <= Thresher then CLASS.Type = SSN":     4, // R7
		"if 0208 <= SUBMARINE.Class <= 0215 then SONAR.SonarType = BQS":     4, // R16
		"if BQS-04 <= SONAR.Sonar <= BQS-15 then SONAR.SonarType = BQS":     4, // R11
	}
	for _, r := range got.Rules() {
		if want, ok := wantSupports[r.String()]; ok && r.Support != want {
			t.Errorf("%s: support = %d, want %d", r, r.Support, want)
		}
	}
}

func TestInducePairConsistencyRemoval(t *testing.T) {
	rel := relation.New("R", relation.MustSchema(
		relation.Column{Name: "A", Type: relation.TInt},
		relation.Column{Name: "B", Type: relation.TString},
	))
	// A=1..3 → x; A=4 inconsistent; A=5..6 → x again (run must be split).
	rel.MustInsert(relation.Int(1), relation.String("x"))
	rel.MustInsert(relation.Int(2), relation.String("x"))
	rel.MustInsert(relation.Int(3), relation.String("x"))
	rel.MustInsert(relation.Int(4), relation.String("x"))
	rel.MustInsert(relation.Int(4), relation.String("y"))
	rel.MustInsert(relation.Int(5), relation.String("x"))
	rel.MustInsert(relation.Int(6), relation.String("x"))

	cat := storage.NewCatalog()
	cat.Put(rel)
	in := New(dict.New(cat), Options{Nc: 1})
	got, err := in.InducePair(Pair{
		Source: rel, XCol: "A", YCol: "B",
		X: rules.Attr("R", "A"), Y: rules.Attr("R", "B"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("rules = %d, want 2 (run split at inconsistent A=4):\n%v", len(got), got)
	}
	if got[0].String() != "if 1 <= R.A <= 3 then R.B = x" {
		t.Errorf("rule 0 = %s", got[0])
	}
	if got[1].String() != "if 5 <= R.A <= 6 then R.B = x" {
		t.Errorf("rule 1 = %s", got[1])
	}
	if got[0].Support != 3 || got[1].Support != 2 {
		t.Errorf("supports = %d, %d", got[0].Support, got[1].Support)
	}
}

func TestInducePairPointRule(t *testing.T) {
	rel := relation.New("R", relation.MustSchema(
		relation.Column{Name: "A", Type: relation.TInt},
		relation.Column{Name: "B", Type: relation.TString},
	))
	rel.MustInsert(relation.Int(10), relation.String("z"))
	cat := storage.NewCatalog()
	cat.Put(rel)
	in := New(dict.New(cat), Options{})
	got, err := in.InducePair(Pair{
		Source: rel, XCol: "A", YCol: "B",
		X: rules.Attr("R", "A"), Y: rules.Attr("R", "B"),
	})
	if err != nil {
		t.Fatal(err)
	}
	// x1 = x2 reduces to "if A = 10 then B = z".
	if len(got) != 1 || got[0].String() != "if R.A = 10 then R.B = z" {
		t.Fatalf("rules = %v", got)
	}
}

func TestInducePairNullsIgnored(t *testing.T) {
	rel := relation.New("R", relation.MustSchema(
		relation.Column{Name: "A", Type: relation.TInt},
		relation.Column{Name: "B", Type: relation.TString},
	))
	rel.MustInsert(relation.Int(1), relation.String("x"))
	rel.MustInsert(relation.Null(), relation.String("x"))
	rel.MustInsert(relation.Int(2), relation.Null())
	cat := storage.NewCatalog()
	cat.Put(rel)
	in := New(dict.New(cat), Options{})
	got, err := in.InducePair(Pair{
		Source: rel, XCol: "A", YCol: "B",
		X: rules.Attr("R", "A"), Y: rules.Attr("R", "B"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Support != 1 {
		t.Fatalf("rules = %v", got)
	}
}

func TestInducePairErrors(t *testing.T) {
	rel := relation.New("R", relation.MustSchema(relation.Column{Name: "A", Type: relation.TInt}))
	cat := storage.NewCatalog()
	cat.Put(rel)
	in := New(dict.New(cat), Options{})
	if _, err := in.InducePair(Pair{Source: rel, XCol: "nope", YCol: "A"}); err == nil {
		t.Error("unknown X column should error")
	}
	if _, err := in.InducePair(Pair{Source: rel, XCol: "A", YCol: "nope"}); err == nil {
		t.Error("unknown Y column should error")
	}
}

func TestNcFraction(t *testing.T) {
	// 10% of the 13-row CLASS relation rounds up to 2: the paper's
	// "percentage of the total number of instances" knob.
	opts := Options{NcFraction: 0.10}
	if nc := opts.effectiveNc(13); nc != 2 {
		t.Errorf("effectiveNc(13) = %d, want 2", nc)
	}
	opts = Options{Nc: 5, NcFraction: 0.10}
	if nc := opts.effectiveNc(13); nc != 5 {
		t.Errorf("absolute Nc should win: %d", nc)
	}
}

func TestCandidatePairsShape(t *testing.T) {
	in := shipInducer(t, Options{})
	pairs, err := in.CandidatePairs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Intra: SUBMARINE (Id, Name → Class) = 2; CLASS (Class, ClassName,
	// Displacement → Type) = 3; SONAR (Sonar → SonarType) = 1.
	// Inter via INSTALL: SUBMARINE side (Id, Class) × SONAR.SonarType = 2;
	// SONAR side (Sonar, SonarType) × (SUBMARINE.Class, CLASS.Type) = 4.
	if len(pairs) != 12 {
		for _, p := range pairs {
			t.Logf("  %s", p.Scheme())
		}
		t.Fatalf("candidate pairs = %d, want 12", len(pairs))
	}
	// First candidate follows hierarchy registration order: SUBMARINE.
	if pairs[0].Scheme().String() != "SUBMARINE.Id --> SUBMARINE.Class" {
		t.Errorf("first pair = %s", pairs[0].Scheme())
	}
}

// TestInducedRulesSound checks the soundness invariant: every induced
// rule is satisfied by every tuple of its source (no counterexamples).
func TestInducedRulesSound(t *testing.T) {
	in := shipInducer(t, Options{Nc: 1})
	pairs, err := in.CandidatePairs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		rs, err := in.InducePair(p)
		if err != nil {
			t.Fatal(err)
		}
		xi := p.Source.Schema().MustIndex(p.XCol)
		yi := p.Source.Schema().MustIndex(p.YCol)
		for _, r := range rs {
			for _, tup := range p.Source.Rows() {
				if tup[xi].IsNull() || tup[yi].IsNull() {
					continue
				}
				if r.LHS[0].Contains(tup[xi]) && !r.RHS.Contains(tup[yi]) {
					t.Errorf("rule %s violated by tuple %v of %s", r, tup, p.Source.Name())
				}
			}
		}
	}
}
