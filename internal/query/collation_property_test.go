package query_test

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"intensional/internal/dict"
	"intensional/internal/quel"
	"intensional/internal/query"
	"intensional/internal/relation"
	"intensional/internal/rules"
	"intensional/internal/storage"
)

// adversarialValues are the numbers where two collations could part:
// signed zeros, integers at 2^53 ± 1 beside the floats nearest them,
// and the largest finite magnitudes. A float column stores every one.
var adversarialValues = []relation.Value{
	relation.Int(0), relation.Float(0), relation.Float(math.Copysign(0, -1)),
	relation.Int(1<<53 - 1), relation.Int(1 << 53), relation.Int(1<<53 + 1),
	relation.Float(1<<53 - 1), relation.Float(1 << 53), relation.Float(1<<53 + 2),
	relation.Int(-(1<<53 + 1)), relation.Float(-(1 << 53)),
	relation.Float(1e308), relation.Float(-1e308), relation.Float(math.MaxFloat64),
	relation.Int(5), relation.Float(5), relation.Float(5.5),
}

// adversarialValue draws a value from the pool, or now and then a null.
func adversarialValue(rr *rand.Rand) relation.Value {
	if rr.Intn(8) == 0 {
		return relation.Null()
	}
	return adversarialValues[rr.Intn(len(adversarialValues))]
}

// sqlLiteral renders a non-null value as an SQL numeric literal (the
// lexer reads no exponent, so floats are written out in full).
func sqlLiteral(v relation.Value) string {
	if v.Kind() == relation.KindInt {
		return strconv.FormatInt(v.Int64(), 10)
	}
	s := strconv.FormatFloat(v.Float64(), 'f', -1, 64)
	if !strings.Contains(s, ".") {
		s += ".0"
	}
	return s
}

// holdsCompare decides "a op b" under Compare, the one collation: a
// null compares equal to a null and with nothing else.
func holdsCompare(a relation.Value, op string, b relation.Value) bool {
	c, err := a.Compare(b)
	if err != nil {
		return false
	}
	switch op {
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
	}
	return c >= 0
}

// sameRows reports whether two results hold the same multiset of rows
// when cells are matched by Equal (a null matches a null).
func sameRows(got, want []relation.Tuple) bool {
	if len(got) != len(want) {
		return false
	}
	used := make([]bool, len(want))
next:
	for _, g := range got {
		for j, w := range want {
			if !used[j] && equalRow(g, w) {
				used[j] = true
				continue next
			}
		}
		return false
	}
	return true
}

func equalRow(a, b relation.Tuple) bool {
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// distinctCompare keeps one row of each class of Equal rows.
func distinctCompare(rows []relation.Tuple) []relation.Tuple {
	var out []relation.Tuple
next:
	for _, r := range rows {
		for _, o := range out {
			if equalRow(o, r) {
				continue next
			}
		}
		out = append(out, r)
	}
	return out
}

// TestAccessPathsAgreeWithCompareProperty: over random relations of
// adversarial values (nulls, ±0, 2^53 ± 1 as int and as float, ±1e308),
// every access path answers as a naive evaluator over Compare does:
// the index scan and the full scan of one selection, the hash join and
// the cross join with a residual of one equality, DISTINCT, GROUP BY,
// ORDER BY, and the dictionary's SnapToObserved. Each seed is logged on
// failure.
func TestAccessPathsAgreeWithCompareProperty(t *testing.T) {
	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	for seed := int64(1); seed <= 150; seed++ {
		rr := rand.New(rand.NewSource(seed))
		cat := storage.NewCatalog()
		tRel := relation.New("T", relation.MustSchema(relation.Column{Name: "X", Type: relation.TFloat}))
		uRel := relation.New("U", relation.MustSchema(relation.Column{Name: "Y", Type: relation.TFloat}))
		for i := 64 + rr.Intn(40); i > 0; i-- { // at or above the planner's index threshold
			tRel.MustInsert(adversarialValue(rr))
		}
		for i := rr.Intn(8); i > 0; i-- {
			uRel.MustInsert(adversarialValue(rr))
		}
		cat.Put(tRel)
		cat.Put(uRel)
		var ctr quel.Counters
		p := query.New(cat, &ctr)
		runSQL := func(sql string) []relation.Tuple {
			t.Helper()
			prep, err := p.Prepare(sql, nil)
			if err != nil {
				t.Fatalf("seed %d: prepare %s: %v", seed, sql, err)
			}
			res, err := prep.Run()
			if err != nil {
				t.Fatalf("seed %d: run %s: %v", seed, sql, err)
			}
			return res.Rows()
		}
		check := func(sql string, got, want []relation.Tuple) {
			t.Helper()
			if !sameRows(got, want) {
				t.Fatalf("seed %d: %s returned %v, naive over Compare %v", seed, sql, got, want)
			}
		}

		// One selection, served by the index and by a full scan.
		c := adversarialValues[rr.Intn(len(adversarialValues))]
		op := ops[rr.Intn(len(ops))]
		var sel []relation.Tuple
		for _, row := range tRel.Rows() {
			if holdsCompare(row[0], op, c) {
				sel = append(sel, row)
			}
		}
		cond := "X " + op + " " + sqlLiteral(c)
		before := ctr.IndexScans.Load()
		check(cond, runSQL("SELECT X FROM T WHERE "+cond), sel)
		if ctr.IndexScans.Load() == before {
			t.Fatalf("seed %d: %s was not served by the index", seed, cond)
		}
		before = ctr.FullScans.Load()
		check(cond+" (scan)", runSQL("SELECT X FROM T WHERE "+cond+" OR "+cond), sel)
		if ctr.FullScans.Load() == before {
			t.Fatalf("seed %d: %s OR %s did not scan", seed, cond, cond)
		}

		// One equality, as a hash join and as a residual over a cross join.
		var join []relation.Tuple
		for _, tr := range tRel.Rows() {
			for _, ur := range uRel.Rows() {
				if holdsCompare(tr[0], "=", ur[0]) {
					join = append(join, relation.Tuple{tr[0], ur[0]})
				}
			}
		}
		check("hash join", runSQL("SELECT T.X, U.Y FROM T, U WHERE T.X = U.Y"), join)
		check("residual join", runSQL("SELECT T.X, U.Y FROM T, U WHERE T.X >= U.Y AND T.X <= U.Y"), join)

		// DISTINCT and GROUP BY partition the column by Equal.
		classes := distinctCompare(tRel.Rows())
		check("DISTINCT", runSQL("SELECT DISTINCT X FROM T"), classes)
		var groups []relation.Tuple
		for _, cl := range classes {
			n, lo, hi := 0, relation.Null(), relation.Null()
			for _, row := range tRel.Rows() {
				if row[0].Equal(cl[0]) {
					n++
					if !row[0].IsNull() && (lo.IsNull() || row[0].Less(lo)) {
						lo = row[0]
					}
					if !row[0].IsNull() && (hi.IsNull() || hi.Less(row[0])) {
						hi = row[0]
					}
				}
			}
			groups = append(groups, relation.Tuple{cl[0], relation.Int(int64(n)), lo, hi})
		}
		check("GROUP BY", runSQL("SELECT X, COUNT(*), MIN(X), MAX(X) FROM T GROUP BY X"), groups)

		// ORDER BY: the column's rows, nulls first, then ascending by Compare.
		sorted := runSQL("SELECT X FROM T ORDER BY X")
		check("ORDER BY", sorted, tRel.Rows())
		for i := 1; i < len(sorted); i++ {
			a, b := sorted[i-1][0], sorted[i][0]
			if !a.IsNull() && (b.IsNull() || b.Less(a)) {
				t.Fatalf("seed %d: ORDER BY X puts %v before %v", seed, a, b)
			}
		}

		// SnapToObserved: the least and greatest stored values inside an
		// interval, as a scan under Compare finds them.
		d := dict.New(cat)
		for k := 0; k < 10; k++ {
			bound := func() rules.Bound {
				v := adversarialValues[rr.Intn(len(adversarialValues))]
				switch rr.Intn(4) {
				case 0:
					return rules.Unbound()
				case 1:
					return rules.Opened(v)
				}
				return rules.Closed(v)
			}
			iv := rules.Interval{Lo: bound(), Hi: bound()}
			lo, hi := relation.Null(), relation.Null()
			for _, row := range tRel.Rows() {
				if v := row[0]; !v.IsNull() && iv.Contains(v) {
					if lo.IsNull() || v.Less(lo) {
						lo = v
					}
					if hi.IsNull() || hi.Less(v) {
						hi = v
					}
				}
			}
			got, ok, err := d.SnapToObserved(rules.Attr("T", "X"), iv)
			if err != nil {
				t.Fatal(err)
			}
			if ok != !lo.IsNull() || ok && (!got.Lo.Value.Equal(lo) || !got.Hi.Value.Equal(hi)) {
				t.Fatalf("seed %d: snap %s = %s, %v; a scan gives [%v, %v]", seed, iv, got, ok, lo, hi)
			}
		}
	}
}
