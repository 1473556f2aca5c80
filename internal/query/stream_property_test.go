package query_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"intensional/internal/query"
	"intensional/internal/relation"
	"intensional/internal/sqlparse"
	"intensional/internal/storage"
)

// cancelAfter is a context whose Err starts reporting Canceled after a
// fixed number of checks — a deterministic stand-in for a caller that
// cancels mid-stream. The streaming executor checks the context at
// batch boundaries, so the budget maps to a point inside the pipeline.
type cancelAfter struct {
	context.Context
	budget *int
}

func (c cancelAfter) Err() error {
	if *c.budget <= 0 {
		return context.Canceled
	}
	*c.budget--
	return nil
}

// randomStreamSQL decorates the shared conjunctive generator with the
// clauses the streaming operators care about: DISTINCT (Distinct),
// ORDER BY (Sort), and an occasional aggregate (Aggregate).
func randomStreamSQL(rr *rand.Rand, join bool) string {
	if !join && rr.Intn(4) == 0 {
		terms := []string{fmt.Sprintf("R.V %s %d",
			[]string{"<", "<=", ">", ">="}[rr.Intn(4)], rr.Intn(31)-5)}
		return "SELECT K, COUNT(*), SUM(V), MIN(V), AVG(V) FROM R WHERE " +
			strings.Join(terms, " AND ") + " GROUP BY K ORDER BY K"
	}
	sql := randomConjunctiveSQL(rr, join)
	if !join && rr.Intn(2) == 0 {
		sql = "SELECT R.K, R.V FROM R WHERE " + randomWhere(rr, 2)
	}
	if rr.Intn(3) == 0 {
		sql = strings.Replace(sql, "SELECT ", "SELECT DISTINCT ", 1)
	}
	if !join && rr.Intn(3) == 0 {
		sql += " ORDER BY K"
		if rr.Intn(2) == 0 {
			sql += " DESC"
		}
	}
	return sql
}

// randomWhere builds a random condition over R alone that reaches the
// corners where two predicate compilers could disagree: OR and NOT,
// qualified and bare columns, float literals against int columns,
// column-vs-column and literal-vs-literal comparisons.
func randomWhere(rr *rand.Rand, depth int) string {
	if depth > 0 && rr.Intn(2) == 0 {
		switch rr.Intn(3) {
		case 0:
			return "NOT (" + randomWhere(rr, depth-1) + ")"
		case 1:
			return "(" + randomWhere(rr, depth-1) + " OR " + randomWhere(rr, depth-1) + ")"
		default:
			return "(" + randomWhere(rr, depth-1) + " AND " + randomWhere(rr, depth-1) + ")"
		}
	}
	operand := func() string {
		switch rr.Intn(5) {
		case 0:
			return "R.K"
		case 1:
			return "V"
		case 2:
			return fmt.Sprint(rr.Intn(31) - 5)
		default:
			return fmt.Sprintf("%d.%d", rr.Intn(21), 5*rr.Intn(2))
		}
	}
	ops := []string{"=", "!=", "<>", "<", "<=", ">", ">="}
	return operand() + " " + ops[rr.Intn(len(ops))] + " " + operand()
}

// dmlMatchesNaive runs the single-table statement's WHERE as a DELETE
// and as an UPDATE, each on its own shallow clone of the catalog, and
// checks that both remove exactly the rows the naive evaluator selects
// — DML and SELECT share one predicate compiler, so they cannot
// disagree on which rows a condition holds for.
func dmlMatchesNaive(t *testing.T, seed int64, cat *storage.Catalog, sel *sqlparse.Select) bool {
	all, err := sqlparse.Parse("SELECT R.K, R.V FROM R")
	if err != nil {
		t.Fatal(err)
	}
	all.Where = sel.Where
	want := sortedKeys(naiveSelect(t, cat, all))
	for _, st := range []sqlparse.Stmt{
		&sqlparse.Delete{Table: "R", Where: sel.Where},
		&sqlparse.Update{Table: "R", Where: sel.Where,
			Set: []sqlparse.Assign{{Column: "V", Val: sqlparse.Lit{Val: relation.Int(99)}}}},
	} {
		m, err := query.ApplyMutation(cat.ShallowClone(), st)
		if err != nil {
			t.Logf("seed %d: %s WHERE %s: %v", seed, st.Kind(), sel.Where, err)
			return false
		}
		if got := sortedKeys(m.Deleted); strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Logf("seed %d: %s WHERE %s removed %d rows, SELECT selects %d",
				seed, st.Kind(), sel.Where, len(got), len(want))
			return false
		}
	}
	return true
}

// TestStreamingMatchesNaive: under seeded random catalogs and random
// conjunctive queries — joins, DISTINCT, ORDER BY [DESC], GROUP BY with
// COUNT/SUM/MIN/AVG — the streaming operator pipeline must return the
// same multiset of rows as the naive evaluator (naive_test.go), in
// sort-key order when the statement has an ORDER BY, and the identical
// row sequence every time one prepared statement is run. Cancelled
// mid-stream it must either do all of that or fail with
// context.Canceled — never return wrong rows. Half the single-table
// catalogs carry NULL cells, and every single-table WHERE also runs as
// a DELETE and an UPDATE that must remove exactly the rows it selects.
func TestStreamingMatchesNaive(t *testing.T) {
	prop := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		join := rr.Intn(3) == 0
		cat := propCatalog(rr, join)
		if !join && rr.Intn(2) == 0 {
			r, err := cat.Get("R")
			if err != nil {
				t.Fatal(err)
			}
			for j := 1 + rr.Intn(5); j > 0; j-- {
				r.MustInsert(relation.Int(int64(rr.Intn(21))), relation.Null())
			}
		}
		sql := randomStreamSQL(rr, join)

		sel, err := sqlparse.Parse(sql)
		if err != nil {
			t.Logf("seed %d: parse %q: %v", seed, sql, err)
			return false
		}
		if !join && !sel.HasAggregates() && !dmlMatchesNaive(t, seed, cat, sel) {
			return false
		}
		want := sortedKeys(naiveSelect(t, cat, sel))

		prep, err := query.New(cat, nil, nil).Prepare(sql, nil)
		if err != nil {
			t.Logf("seed %d: prepare %q: %v", seed, sql, err)
			return false
		}
		// matches checks one run's rows against the reference.
		matches := func(what string, got *relation.Relation) bool {
			if w := got.Schema().Len(); w != len(sel.Items) {
				t.Logf("seed %d: %q %s run: %d columns, want %d", seed, sql, what, w, len(sel.Items))
				return false
			}
			keys := sortedKeys(got.Rows())
			if len(keys) != len(want) {
				t.Logf("seed %d: %q %s run: %d rows, naive %d\nplan:\n%s",
					seed, sql, what, len(keys), len(want), prep.Describe())
				return false
			}
			for i := range keys {
				if keys[i] != want[i] {
					t.Logf("seed %d: %q %s run: sorted row %d is %q, naive %q",
						seed, sql, what, i, keys[i], want[i])
					return false
				}
			}
			if r := orderViolation(t, sel, got.Rows()); r >= 0 {
				t.Logf("seed %d: %q %s run: rows %d and %d break the ORDER BY", seed, sql, what, r, r+1)
				return false
			}
			return true
		}

		got, err := prep.Run()
		if err != nil {
			t.Logf("seed %d: streaming run %q: %v", seed, sql, err)
			return false
		}
		if !matches("first", got) {
			return false
		}
		again, err := prep.Run()
		if err != nil {
			t.Logf("seed %d: second run %q: %v", seed, sql, err)
			return false
		}
		if a, b := rowKeys(got), rowKeys(again); strings.Join(a, "\n") != strings.Join(b, "\n") {
			t.Logf("seed %d: %q: two runs of one prepared statement differ in row sequence", seed, sql)
			return false
		}

		// Cancellation mid-stream: the run either completes with the
		// correct result (cancellation landed after the last batch) or
		// fails with context.Canceled.
		budget := rr.Intn(4)
		cres, err := prep.RunContext(cancelAfter{context.Background(), &budget})
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Logf("seed %d: cancelled run %q: got err %v, want context.Canceled", seed, sql, err)
				return false
			}
			return true
		}
		return matches("cancelled", cres)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
