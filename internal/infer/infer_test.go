package infer_test

import (
	"strings"
	"testing"

	"intensional/internal/answer"
	"intensional/internal/dict"
	"intensional/internal/induct"
	"intensional/internal/infer"
	"intensional/internal/query"
	"intensional/internal/relation"
	"intensional/internal/rules"
	"intensional/internal/shipdb"
)

// harness wires the full pipeline: ship catalog, dictionary, induced
// rules (Nc=3), query processor, inference processor.
type harness struct {
	d *dict.Dictionary
	q *query.Processor
	p *infer.Processor
}

func newHarness(t *testing.T, nc int) *harness {
	t.Helper()
	cat := shipdb.Catalog()
	d, err := shipdb.Dictionary(cat)
	if err != nil {
		t.Fatal(err)
	}
	set, err := induct.New(d, induct.Options{Nc: nc}).InduceAll()
	if err != nil {
		t.Fatal(err)
	}
	d.SetRules(set)
	return &harness{d: d, q: query.New(cat, nil), p: infer.New(d)}
}

// execute prepares sql as written and runs it, returning the extensional
// answer with the query's analysis.
func execute(q *query.Processor, sql string) (*relation.Relation, *query.Analysis, error) {
	prep, err := q.Prepare(sql, nil)
	if err != nil {
		return nil, nil, err
	}
	ext, err := prep.Run()
	return ext, prep.Analysis, err
}

func (h *harness) run(t *testing.T, sql string) (*query.Analysis, *infer.Result) {
	t.Helper()
	prep, err := h.q.Prepare(sql, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.p.Derive(prep.Analysis)
	if err != nil {
		t.Fatal(err)
	}
	return prep.Analysis, res
}

const (
	example1 = `SELECT SUBMARINE.ID, SUBMARINE.NAME, SUBMARINE.CLASS, CLASS.TYPE
		FROM SUBMARINE, CLASS
		WHERE SUBMARINE.CLASS = CLASS.CLASS AND CLASS.DISPLACEMENT > 8000`
	example2 = `SELECT SUBMARINE.NAME, SUBMARINE.CLASS
		FROM SUBMARINE, CLASS
		WHERE SUBMARINE.CLASS = CLASS.CLASS AND CLASS.TYPE = "SSBN"`
	example3 = `SELECT SUBMARINE.NAME, SUBMARINE.CLASS, CLASS.TYPE
		FROM SUBMARINE, CLASS, INSTALL
		WHERE SUBMARINE.CLASS = CLASS.CLASS AND SUBMARINE.ID = INSTALL.SHIP
		AND INSTALL.SONAR = "BQS-04"`
)

// TestExample1Forward reproduces Example 1: forward inference with R9
// derives "Ship type SSBN has displacement greater than 8000".
func TestExample1Forward(t *testing.T) {
	h := newHarness(t, 3)
	an, res := h.run(t, example1)

	fwd := res.Forward()
	if len(fwd) != 1 {
		t.Fatalf("forward facts = %v, want exactly one (Type=SSBN)", fwd)
	}
	f := fwd[0]
	if !f.Attr.EqualFold(rules.Attr("CLASS", "Type")) || f.Subtype != "SSBN" {
		t.Errorf("derived fact = %s", f)
	}
	if !f.Interval.IsPoint() || !f.Interval.Lo.Value.Equal(relation.String("SSBN")) {
		t.Errorf("derived interval = %s", f.Interval)
	}

	a := answer.Render(an, res, answer.ForwardOnly)
	if !strings.Contains(a.Text(), "type SSBN has Displacement > 8000") {
		t.Errorf("rendered answer = %q", a.Text())
	}
}

// TestExample2Backward reproduces Example 2: backward inference with R5
// derives "Ship Classes in the range of 0101 to 0103 are SSBN", and the
// answer is incomplete (class 1301 missing) because R_new is pruned.
func TestExample2Backward(t *testing.T) {
	h := newHarness(t, 3)
	an, res := h.run(t, example2)

	if len(res.Forward()) != 0 {
		t.Errorf("no forward facts expected, got %v", res.Forward())
	}
	var classDesc *infer.Description
	for i, d := range res.Descriptions {
		if d.Clause.Attr.EqualFold(rules.Attr("CLASS", "Class")) {
			classDesc = &res.Descriptions[i]
		}
	}
	if classDesc == nil {
		t.Fatalf("no backward description on CLASS.Class: %v", res.Descriptions)
	}
	if classDesc.Clause.Lo.Str() != "0101" || classDesc.Clause.Hi.Str() != "0103" {
		t.Errorf("description range = %s", classDesc.Clause)
	}
	if classDesc.Subtype != "SSBN" {
		t.Errorf("description subtype = %q", classDesc.Subtype)
	}
	// Incompleteness: class 1301 is nowhere in the backward descriptions.
	for _, d := range res.Descriptions {
		if d.Clause.Contains(relation.String("1301")) &&
			d.Clause.Attr.EqualFold(rules.Attr("CLASS", "Class")) {
			t.Errorf("class 1301 should be missing at Nc=3, got %s", d)
		}
	}

	a := answer.Render(an, res, answer.BackwardOnly)
	if !strings.Contains(a.Text(), "Classes in the range of 0101 to 0103 are SSBN") {
		t.Errorf("rendered answer = %q", a.Text())
	}
	// Projection ranking: the Class description (projected) precedes the
	// Displacement one (not projected).
	lines := a.Lines
	if len(lines) < 2 || !strings.Contains(lines[0], "Class") || !strings.Contains(lines[1], "Displacement") {
		t.Errorf("ranking: %v", lines)
	}
}

// TestExample2CompleteAtNc1 verifies the paper's note: if R_new
// ("Class = 1301 then SSBN") is maintained, the intensional answer
// becomes complete.
func TestExample2CompleteAtNc1(t *testing.T) {
	h := newHarness(t, 1)
	_, res := h.run(t, example2)
	found := false
	for _, d := range res.Descriptions {
		if d.Clause.Attr.EqualFold(rules.Attr("CLASS", "Class")) &&
			d.Clause.Contains(relation.String("1301")) {
			found = true
		}
	}
	if !found {
		t.Error("at Nc=1 the 1301 description (R_new) should appear")
	}
}

// TestExample3Combined reproduces Example 3: forward inference derives
// Type=SSN (R17) and SonarType=BQS (R11); backward inference from the
// derived BQS fact contributes the class range 0208–0215 (R16).
func TestExample3Combined(t *testing.T) {
	h := newHarness(t, 3)
	an, res := h.run(t, example3)

	var gotSSN, gotBQS bool
	for _, f := range res.Forward() {
		switch f.Subtype {
		case "SSN":
			gotSSN = true
		case "BQS":
			gotBQS = true
		}
	}
	if !gotSSN || !gotBQS {
		t.Fatalf("forward facts missing SSN/BQS: %v", res.Facts)
	}

	var classRange *infer.Description
	for i, d := range res.Descriptions {
		if d.Clause.Attr.EqualFold(rules.Attr("SUBMARINE", "Class")) &&
			d.Clause.Lo.Str() == "0208" && d.Clause.Hi.Str() == "0215" {
			classRange = &res.Descriptions[i]
		}
	}
	if classRange == nil {
		t.Fatalf("backward description 0208..0215 missing: %v", res.Descriptions)
	}
	if classRange.Subtype != "BQS" {
		t.Errorf("class-range consequence subtype = %q", classRange.Subtype)
	}

	a := answer.Render(an, res, answer.Combined)
	text := a.Text()
	for _, want := range []string{"SSN", "BQS", "0208", "0215"} {
		if !strings.Contains(text, want) {
			t.Errorf("combined answer missing %q:\n%s", want, text)
		}
	}
}

// TestForwardSupersetInvariant checks the containment semantics of
// Section 4: instances satisfying the forward intensional answer form a
// superset of the extensional answer.
func TestForwardSupersetInvariant(t *testing.T) {
	h := newHarness(t, 3)
	for _, sql := range []string{example1, example2, example3} {
		ext, an, err := execute(h.q, sql)
		if err != nil {
			t.Fatal(err)
		}
		res, err := h.p.Derive(an)
		if err != nil {
			t.Fatal(err)
		}
		// Every derived fact on CLASS.Type must hold for every answer row
		// that carries a Type column.
		ti, ok := ext.Schema().Index("Type")
		if !ok {
			continue
		}
		for _, f := range res.Forward() {
			if !f.Attr.EqualFold(rules.Attr("CLASS", "Type")) {
				continue
			}
			for _, row := range ext.Rows() {
				if !f.Interval.Contains(row[ti]) {
					t.Errorf("%s: forward fact %s violated by answer row %v", sql, f, row)
				}
			}
		}
	}
}

// TestBackwardSubsetInvariant checks that Example 2's backward
// description is contained in the extensional answer.
func TestBackwardSubsetInvariant(t *testing.T) {
	h := newHarness(t, 3)
	ext, an, err := execute(h.q, example2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.p.Derive(an)
	if err != nil {
		t.Fatal(err)
	}
	ci := ext.Schema().MustIndex("Class")
	answerClasses := map[string]bool{}
	for _, row := range ext.Rows() {
		answerClasses[row[ci].Str()] = true
	}
	for _, d := range res.Descriptions {
		if !d.Clause.Attr.EqualFold(rules.Attr("CLASS", "Class")) {
			continue
		}
		// Every class in the described range that exists in the database
		// must be in the extensional answer.
		cls, err := h.d.Catalog().Get("CLASS")
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range cls.Rows() {
			v := row[cls.Schema().MustIndex("Class")]
			if d.Clause.Contains(v) && !answerClasses[v.Str()] {
				t.Errorf("backward description %s includes non-answer class %s", d, v)
			}
		}
	}
}

// TestNonConjunctiveYieldsNothing checks the guard for disjunctive
// queries.
func TestNonConjunctiveYieldsNothing(t *testing.T) {
	h := newHarness(t, 3)
	an, res := h.run(t, `SELECT Class FROM CLASS WHERE Type = "SSBN" OR Displacement > 8000`)
	if res.Conjunctive {
		t.Error("result should be flagged non-conjunctive")
	}
	if len(res.Facts) != 0 || len(res.Descriptions) != 0 {
		t.Errorf("no inference expected: %v %v", res.Facts, res.Descriptions)
	}
	a := answer.Render(an, res, answer.Combined)
	if !strings.Contains(a.Text(), "not a pure conjunction") {
		t.Errorf("rendered = %q", a.Text())
	}
}

// TestNoApplicableRules: a condition spanning both ship types (observed
// displacements 6000..30000 cross the SSN/SSBN boundary) fits no single
// premise, so nothing is derived.
func TestNoApplicableRules(t *testing.T) {
	h := newHarness(t, 3)
	an, res := h.run(t, `SELECT Class FROM CLASS WHERE Displacement > 5000`)
	if n := len(res.Forward()); n != 0 {
		t.Errorf("forward facts = %d, want 0: %v", n, res.Forward())
	}
	a := answer.Render(an, res, answer.Combined)
	if !strings.Contains(a.Text(), "No intensional answer could be derived") {
		t.Errorf("rendered = %q", a.Text())
	}
}

// TestEmptyAnswerDetection: a condition that clips to an empty interval
// against the active domain proves the answer empty — itself an
// intensional answer.
func TestEmptyAnswerDetection(t *testing.T) {
	h := newHarness(t, 3)
	an, res := h.run(t, `SELECT Class FROM CLASS WHERE Displacement < 2000`)
	if !res.Empty || len(res.EmptyBecause) != 1 {
		t.Fatalf("empty = %v, because = %v", res.Empty, res.EmptyBecause)
	}
	if len(res.Facts) != 0 || len(res.Descriptions) != 0 {
		t.Errorf("no facts expected for an empty answer")
	}
	a := answer.Render(an, res, answer.Combined)
	if !strings.Contains(a.Text(), "The answer is empty") {
		t.Errorf("rendered = %q", a.Text())
	}
}

// TestPaperRulesInference re-runs Example 1 with the verbatim paper rule
// set (IDs R1–R17) instead of induced rules, pinning the rule provenance.
func TestPaperRulesInference(t *testing.T) {
	cat := shipdb.Catalog()
	d, err := shipdb.Dictionary(cat)
	if err != nil {
		t.Fatal(err)
	}
	d.SetRules(shipdb.PaperRules())
	q := query.New(cat, nil)
	prep, err := q.Prepare(example1, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := infer.New(d).Derive(prep.Analysis)
	if err != nil {
		t.Fatal(err)
	}
	fwd := res.Forward()
	if len(fwd) != 1 || len(fwd[0].Via) != 1 || fwd[0].Via[0] != 9 {
		t.Fatalf("Example 1 should fire exactly R9: %v", fwd)
	}
}

// TestExplainPaths covers the derivation-trace rendering for the guard
// branches (non-conjunctive, empty, nothing derived).
func TestExplainPaths(t *testing.T) {
	h := newHarness(t, 3)
	an, res := h.run(t, `SELECT Class FROM CLASS WHERE Type = "SSBN" OR Type = "SSN"`)
	_ = an
	if got := res.Explain(h.d.Rules()); !strings.Contains(got, "not a pure conjunction") {
		t.Errorf("explain = %q", got)
	}
	_, res = h.run(t, `SELECT Class FROM CLASS WHERE Displacement < 2000`)
	if got := res.Explain(h.d.Rules()); !strings.Contains(got, "answer proven empty") {
		t.Errorf("explain = %q", got)
	}
	_, res = h.run(t, `SELECT Class FROM CLASS WHERE Displacement > 5000`)
	got := res.Explain(h.d.Rules())
	if !strings.Contains(got, "condition: CLASS.Displacement") {
		t.Errorf("explain = %q", got)
	}
	// A rule ID not present in the set still renders.
	res.Descriptions = append(res.Descriptions, infer.Description{
		Clause:      rules.PointClause(rules.Attr("CLASS", "Class"), relation.String("0101")),
		Consequence: rules.PointClause(rules.Attr("CLASS", "Type"), relation.String("SSBN")),
		Via:         999,
	})
	if got := res.Explain(h.d.Rules()); !strings.Contains(got, "by R999") {
		t.Errorf("explain = %q", got)
	}
}

// TestFactStringAndDescriptionString covers the display forms.
func TestFactStringAndDescriptionString(t *testing.T) {
	f := infer.Fact{
		Attr:     rules.Attr("CLASS", "Type"),
		Interval: rules.Point(relation.String("SSBN")),
		Subtype:  "SSBN",
	}
	if got := f.String(); !strings.Contains(got, "isa SSBN") {
		t.Errorf("Fact.String = %q", got)
	}
	d := infer.Description{
		Clause:      rules.RangeClause(rules.Attr("CLASS", "Class"), relation.String("0101"), relation.String("0103")),
		Consequence: rules.PointClause(rules.Attr("CLASS", "Type"), relation.String("SSBN")),
		Via:         5,
	}
	if got := d.String(); !strings.Contains(got, "via R5") {
		t.Errorf("Description.String = %q", got)
	}
}
