package query_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"intensional/internal/dict"
	"intensional/internal/query"
	"intensional/internal/relation"
	"intensional/internal/rules"
	"intensional/internal/semopt"
	"intensional/internal/storage"
)

// propCatalog builds one or two small random relations over int columns
// K and V with values in [0, 20].
func propCatalog(rr *rand.Rand, twoRels bool) *storage.Catalog {
	cat := storage.NewCatalog()
	names := []string{"R"}
	if twoRels {
		names = append(names, "S")
	}
	for _, name := range names {
		s := relation.MustSchema(
			relation.Column{Name: "K", Type: relation.TInt},
			relation.Column{Name: "V", Type: relation.TInt},
		)
		r := relation.New(name, s)
		for j := rr.Intn(60); j > 0; j-- {
			r.MustInsert(
				relation.Int(int64(rr.Intn(21))),
				relation.Int(int64(rr.Intn(21))),
			)
		}
		cat.Put(r)
	}
	return cat
}

// consistentRandomRules derives a seeded random rule base that is
// consistent with the data by construction: each rule's premise is a
// random interval on one attribute, its consequence the observed value
// range of another attribute over the premise-matching rows. A premise
// no row matches gets an arbitrary consequence — vacuously consistent,
// and exactly the shape that lets inference prove emptiness.
func consistentRandomRules(rr *rand.Rand, cat *storage.Catalog) *rules.Set {
	set := rules.NewSet()
	for _, name := range cat.Names() {
		rel, err := cat.Get(name)
		if err != nil {
			continue
		}
		cols := []string{"K", "V"}
		for i := 0; i < 3+rr.Intn(3); i++ {
			x := cols[rr.Intn(2)]
			y := cols[0]
			if x == y {
				y = cols[1]
			}
			a, b := int64(rr.Intn(21)), int64(rr.Intn(21))
			if a > b {
				a, b = b, a
			}
			xi, _ := rel.Schema().Index(x)
			yi, _ := rel.Schema().Index(y)
			lo, hi := relation.Null(), relation.Null()
			for _, row := range rel.Rows() {
				k := row[xi].Int64()
				if k < a || k > b {
					continue
				}
				v := row[yi]
				if lo.IsNull() || v.Less(lo) {
					lo = v
				}
				if hi.IsNull() || hi.Less(v) {
					hi = v
				}
			}
			if lo.IsNull() {
				// Vacuous premise: any consequence is consistent.
				lo = relation.Int(int64(rr.Intn(21)))
				hi = lo
			}
			set.Add(&rules.Rule{
				LHS:     []rules.Clause{rules.RangeClause(rules.Attr(name, x), relation.Int(a), relation.Int(b))},
				RHS:     rules.RangeClause(rules.Attr(name, y), lo, hi),
				Support: 1,
			})
		}
	}
	return set
}

// randomConjunctiveSQL builds a random conjunctive SELECT. Constants
// range over [-5, 25] so restrictions fall inside and outside the
// active domain, exercising Empty proofs.
func randomConjunctiveSQL(rr *rand.Rand, join bool) string {
	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	conj := func(table string) string {
		col := []string{"K", "V"}[rr.Intn(2)]
		return fmt.Sprintf("%s.%s %s %d", table, col, ops[rr.Intn(len(ops))], rr.Intn(31)-5)
	}
	var terms []string
	if join {
		terms = append(terms, "R.K = S.K")
		for i := rr.Intn(3); i > 0; i-- {
			terms = append(terms, conj([]string{"R", "S"}[rr.Intn(2)]))
		}
		sql := "SELECT R.K, R.V, S.V FROM R, S"
		return sql + " WHERE " + strings.Join(terms, " AND ")
	}
	for i := 1 + rr.Intn(3); i > 0; i-- {
		terms = append(terms, conj("R"))
	}
	return "SELECT R.K, R.V FROM R WHERE " + strings.Join(terms, " AND ")
}

// rowKeys renders a relation's rows in result order.
func rowKeys(r *relation.Relation) []string {
	out := make([]string, 0, r.Len())
	for _, row := range r.Rows() {
		var b strings.Builder
		for _, v := range row {
			b.WriteString(v.Key())
			b.WriteByte('|')
		}
		out = append(out, b.String())
	}
	return out
}

// TestSemoptRewrittenPlansMatchBaseline: under seeded random data,
// seeded random (data-consistent) rule bases, and random conjunctive
// queries, the semantically rewritten plan must return byte-identical
// results to the unrewritten plan, and an Empty verdict must never
// contradict the ground truth.
func TestSemoptRewrittenPlansMatchBaseline(t *testing.T) {
	prop := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		join := rr.Intn(3) == 0
		cat := propCatalog(rr, join)
		d := dict.New(cat)
		d.SetRules(consistentRandomRules(rr, cat))
		sql := randomConjunctiveSQL(rr, join)

		proc := query.New(cat, nil, nil)
		baseline, err := proc.Prepare(sql, nil)
		if err != nil {
			t.Logf("seed %d: baseline prepare %q: %v", seed, sql, err)
			return false
		}
		baseRel, err := baseline.Run()
		if err != nil {
			t.Logf("seed %d: baseline run %q: %v", seed, sql, err)
			return false
		}

		rewriter := func(an *query.Analysis) (*query.Rewrites, error) { return semopt.Analyze(an, d) }
		rewritten, err := proc.Prepare(sql, rewriter)
		if err != nil {
			t.Logf("seed %d: rewritten prepare %q: %v", seed, sql, err)
			return false
		}
		rwRel, err := rewritten.Run()
		if err != nil {
			t.Logf("seed %d: rewritten run %q: %v", seed, sql, err)
			return false
		}

		got, want := rowKeys(rwRel), rowKeys(baseRel)
		if len(got) != len(want) {
			t.Logf("seed %d: %q rewritten %d rows, baseline %d\nplan:\n%s",
				seed, sql, len(got), len(want), rewritten.Describe())
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				t.Logf("seed %d: %q row %d differs: %q vs %q", seed, sql, i, got[i], want[i])
				return false
			}
		}

		// An Empty verdict must agree with ground truth.
		if rewritten.Describe().Root.Kind() == "Empty" && baseRel.Len() != 0 {
			t.Logf("seed %d: %q proved empty but baseline has %d rows", seed, sql, baseRel.Len())
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
