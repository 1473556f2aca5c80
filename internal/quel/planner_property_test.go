package quel

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"intensional/internal/relation"
	"intensional/internal/storage"
)

// The reference evaluator below shares nothing with the code it checks:
// no planner, no access paths, no indexes, no conjunct classification,
// no compiled predicates. It stands every range variable on every row
// of its relation — the full cross product — and interprets the
// qualification's AST directly at each combination.

// refVar is one range variable: its relation and the row it stands on.
type refVar struct {
	rel *relation.Relation
	row relation.Tuple
}

// refEnv binds lower-cased range variables.
type refEnv map[string]*refVar

// forEach visits the cross product of the listed variables' relations.
func (env refEnv) forEach(vars []string, fn func()) {
	if len(vars) == 0 {
		fn()
		return
	}
	v := env[vars[0]]
	for _, row := range v.rel.Rows() {
		v.row = row
		env.forEach(vars[1:], fn)
	}
}

func (env refEnv) value(t *testing.T, o Operand) relation.Value {
	t.Helper()
	switch o := o.(type) {
	case ConstOperand:
		return o.Val
	case ColOperand:
		v := env[strings.ToLower(o.Col.Var)]
		i, ok := v.rel.Schema().Index(o.Col.Attr)
		if !ok {
			t.Fatalf("reference: %s has no attribute %q", v.rel.Name(), o.Col.Attr)
		}
		return v.row[i]
	}
	t.Fatalf("reference: unknown operand %T", o)
	return relation.Value{}
}

// holds interprets the qualification at the current binding. A
// comparison between incomparable values is false; no qualification
// holds everywhere.
func (env refEnv) holds(t *testing.T, e Expr) bool {
	t.Helper()
	switch e := e.(type) {
	case nil:
		return true
	case *BinExpr:
		c, err := env.value(t, e.L).Compare(env.value(t, e.R))
		if err != nil {
			return false
		}
		switch e.Op {
		case "=":
			return c == 0
		case "!=":
			return c != 0
		case "<":
			return c < 0
		case "<=":
			return c <= 0
		case ">":
			return c > 0
		case ">=":
			return c >= 0
		}
		t.Fatalf("reference: unknown operator %q", e.Op)
	case *AndExpr:
		for _, term := range e.Terms {
			if !env.holds(t, term) {
				return false
			}
		}
		return true
	case *OrExpr:
		for _, term := range e.Terms {
			if env.holds(t, term) {
				return true
			}
		}
		return false
	case *NotExpr:
		return !env.holds(t, e.Term)
	}
	t.Fatalf("reference: unknown expression %T", e)
	return false
}

// exprVars calls use for every range variable the expression mentions.
func exprVars(e Expr, use func(string)) {
	switch e := e.(type) {
	case *BinExpr:
		for _, o := range []Operand{e.L, e.R} {
			if c, ok := o.(ColOperand); ok {
				use(c.Col.Var)
			}
		}
	case *AndExpr:
		for _, term := range e.Terms {
			exprVars(term, use)
		}
	case *OrExpr:
		for _, term := range e.Terms {
			exprVars(term, use)
		}
	case *NotExpr:
		exprVars(e.Term, use)
	}
}

// refEval evaluates a retrieve statement by brute force and returns its
// rows as a sorted multiset of keys.
func refEval(t *testing.T, cat *storage.Catalog, ranges map[string]string, st *RetrieveStmt) []string {
	t.Helper()
	env := refEnv{}
	var vars []string
	use := func(v string) {
		v = strings.ToLower(v)
		if env[v] != nil {
			return
		}
		rel, err := cat.Get(ranges[v])
		if err != nil {
			t.Fatal(err)
		}
		env[v] = &refVar{rel: rel}
		vars = append(vars, v)
	}
	for _, tg := range st.Target {
		use(tg.Col.Var)
	}
	exprVars(st.Where, use)
	var rows []string
	env.forEach(vars, func() {
		if !env.holds(t, st.Where) {
			return
		}
		key := ""
		for _, tg := range st.Target {
			key += env.value(t, ColOperand{Col: tg.Col}).Key() + "|"
		}
		rows = append(rows, key)
	})
	sort.Strings(rows)
	return rows
}

// randomCatalog builds 2–3 small relations with low-cardinality values so
// joins and selections both hit and miss.
func randomCatalog(rr *rand.Rand) *storage.Catalog {
	cat := storage.NewCatalog()
	for i, name := range []string{"T0", "T1", "T2"} {
		s := relation.MustSchema(
			relation.Column{Name: "K", Type: relation.TInt},
			relation.Column{Name: "V", Type: relation.TInt},
			relation.Column{Name: "S", Type: relation.TString},
		)
		r := relation.New(name, s)
		rows := rr.Intn(12)
		for j := 0; j < rows; j++ {
			r.MustInsert(
				relation.Int(int64(rr.Intn(5))),
				relation.Int(int64(rr.Intn(10))),
				relation.String(string(rune('a'+rr.Intn(3)))),
			)
		}
		cat.Put(r)
		_ = i
	}
	return cat
}

// randomExpr builds a random qualification over the declared variables.
func randomExpr(rr *rand.Rand, vars []string, depth int) Expr {
	if depth <= 0 || rr.Intn(3) == 0 {
		v := vars[rr.Intn(len(vars))]
		ops := []string{"=", "!=", "<", "<=", ">", ">="}
		op := ops[rr.Intn(len(ops))]
		l := ColOperand{Col: ColRef{Var: v, Attr: []string{"K", "V"}[rr.Intn(2)]}}
		var r Operand
		if rr.Intn(2) == 0 {
			r = ConstOperand{Val: relation.Int(int64(rr.Intn(10)))}
		} else {
			v2 := vars[rr.Intn(len(vars))]
			r = ColOperand{Col: ColRef{Var: v2, Attr: []string{"K", "V"}[rr.Intn(2)]}}
		}
		return &BinExpr{Op: op, L: l, R: r}
	}
	switch rr.Intn(3) {
	case 0:
		return &AndExpr{Terms: []Expr{randomExpr(rr, vars, depth-1), randomExpr(rr, vars, depth-1)}}
	case 1:
		return &OrExpr{Terms: []Expr{randomExpr(rr, vars, depth-1), randomExpr(rr, vars, depth-1)}}
	default:
		return &NotExpr{Term: randomExpr(rr, vars, depth-1)}
	}
}

// TestPlannerMatchesBruteForceProperty cross-checks the planner (selection
// pushdown, hash joins, residual filters) against full cross-product
// evaluation on random schemas, data, and qualifications.
func TestPlannerMatchesBruteForceProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		cat := randomCatalog(rr)
		nVars := 1 + rr.Intn(3)
		ranges := map[string]string{}
		var vars []string
		for i := 0; i < nVars; i++ {
			v := fmt.Sprintf("v%d", i)
			vars = append(vars, v)
			ranges[v] = fmt.Sprintf("T%d", rr.Intn(3))
		}
		st := &RetrieveStmt{}
		for _, v := range vars {
			st.Target = append(st.Target, Target{Col: ColRef{Var: v, Attr: "K"}})
		}
		if rr.Intn(5) > 0 {
			st.Where = randomExpr(rr, vars, 2)
		}

		// Reference evaluation.
		want := refEval(t, cat, ranges, st)

		// Planner evaluation.
		sess := NewSession(NewPlanner(cat, nil, nil))
		for v, rel := range ranges {
			if _, err := sess.ExecStmt(&RangeStmt{Var: v, Rel: rel}); err != nil {
				t.Logf("range: %v", err)
				return false
			}
		}
		res, err := sess.ExecStmt(st)
		if err != nil {
			t.Logf("exec: %v", err)
			return false
		}
		got := make([]string, 0, res.Rel.Len())
		for _, row := range res.Rel.Rows() {
			key := ""
			for _, v := range row {
				key += v.Key() + "|"
			}
			got = append(got, key)
		}
		sort.Strings(got)
		if len(got) != len(want) {
			t.Logf("seed %d: planner %d rows, reference %d rows (where: %v)",
				seed, len(got), len(want), st.Where)
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				t.Logf("seed %d: row %d differs", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestDeleteMatchesBruteForceProperty checks qualified deletes with
// existential semantics against a reference computation.
func TestDeleteMatchesBruteForceProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		cat := randomCatalog(rr)
		ranges := map[string]string{"a": "T0", "b": "T1"}
		where := randomExpr(rr, []string{"a", "b"}, 1)

		// Reference: a T0 row survives unless the qualification holds for
		// it — existentially over b only when b actually appears in the
		// qualification (unreferenced range variables do not participate,
		// as in QUEL).
		ref := func() []string {
			t0, _ := cat.Get("T0")
			t1, _ := cat.Get("T1")
			env := refEnv{"a": {rel: t0}}
			var others []string
			exprVars(where, func(v string) {
				if v == "b" && env["b"] == nil {
					env["b"] = &refVar{rel: t1}
					others = append(others, "b")
				}
			})
			var kept []string
			for _, row := range t0.Rows() {
				env["a"].row = row
				doomed := false
				env.forEach(others, func() {
					doomed = doomed || env.holds(t, where)
				})
				if !doomed {
					kept = append(kept, row.Key())
				}
			}
			sort.Strings(kept)
			return kept
		}()

		// Planner path, over the same catalog: the reference above has
		// already read it.
		sess := NewSession(NewPlanner(cat, nil, nil))
		for v, rel := range ranges {
			if _, err := sess.ExecStmt(&RangeStmt{Var: v, Rel: rel}); err != nil {
				return false
			}
		}
		if _, err := sess.ExecStmt(&DeleteStmt{Var: "a", Where: where}); err != nil {
			t.Logf("seed %d: delete: %v", seed, err)
			return false
		}
		t0, _ := cat.Get("T0")
		var got []string
		for _, row := range t0.Rows() {
			got = append(got, row.Key())
		}
		sort.Strings(got)
		if len(got) != len(ref) {
			t.Logf("seed %d: kept %d rows, reference %d", seed, len(got), len(ref))
			return false
		}
		for i := range got {
			if got[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
