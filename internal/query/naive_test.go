package query_test

import (
	"sort"
	"strings"
	"testing"

	"intensional/internal/relation"
	"intensional/internal/sqlparse"
	"intensional/internal/storage"
)

// The naive evaluator is the reference the executor is differentially
// tested against. It shares nothing with what it checks — no lowering
// to QUEL, no planner, no access paths, no indexes, no compiled
// predicates, no operators: it parses the SQL, walks the full cross
// product of the FROM tables, interprets the WHERE tree directly at each
// combination, and groups and accumulates with maps. A wrong pushdown,
// join order or index probe therefore cannot pass on both sides.

// naiveTable is one FROM item and the row it currently stands on.
type naiveTable struct {
	binding string
	rel     *relation.Relation
	row     relation.Tuple
}

type naiveEnv []*naiveTable

// col reads a column at the current combination; an unqualified name
// must belong to exactly one table.
func (env naiveEnv) col(t *testing.T, table, column string) relation.Value {
	t.Helper()
	var found []relation.Value
	for _, nt := range env {
		if table != "" && !strings.EqualFold(table, nt.binding) {
			continue
		}
		if i, ok := nt.rel.Schema().Index(column); ok {
			found = append(found, nt.row[i])
		}
	}
	if len(found) != 1 {
		t.Fatalf("naive: column %s.%s resolves to %d tables", table, column, len(found))
	}
	return found[0]
}

func (env naiveEnv) operand(t *testing.T, o sqlparse.Operand) relation.Value {
	t.Helper()
	switch o := o.(type) {
	case sqlparse.Lit:
		return o.Val
	case sqlparse.Col:
		return env.col(t, o.Table, o.Column)
	}
	t.Fatalf("naive: unknown operand %T", o)
	return relation.Value{}
}

// holds interprets the WHERE tree at the current combination. A
// comparison between incomparable values is false.
func (env naiveEnv) holds(t *testing.T, e sqlparse.Expr) bool {
	t.Helper()
	switch e := e.(type) {
	case nil:
		return true
	case *sqlparse.Compare:
		c, err := env.operand(t, e.L).Compare(env.operand(t, e.R))
		if err != nil {
			return false
		}
		switch e.Op {
		case "=":
			return c == 0
		case "!=", "<>":
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
		t.Fatalf("naive: unknown operator %q", e.Op)
	case *sqlparse.And:
		for _, term := range e.Terms {
			if !env.holds(t, term) {
				return false
			}
		}
		return true
	case *sqlparse.Or:
		for _, term := range e.Terms {
			if env.holds(t, term) {
				return true
			}
		}
		return false
	case *sqlparse.Not:
		return !env.holds(t, e.Term)
	}
	t.Fatalf("naive: unknown expression %T", e)
	return false
}

// forEach visits the cross product of the tables from index i on.
func (env naiveEnv) forEach(i int, fn func()) {
	if i == len(env) {
		fn()
		return
	}
	for _, row := range env[i].rel.Rows() {
		env[i].row = row
		env.forEach(i+1, fn)
	}
}

// naiveGroup accumulates one group's aggregates, per select item.
type naiveGroup struct {
	key   relation.Tuple // the plain items' values; aggregates left zero
	count []int64
	sumI  []int64
	sumF  []float64
	float []bool
	min   []relation.Value
	max   []relation.Value
}

// naiveSelect evaluates the statement and returns its rows as an
// unordered multiset: DISTINCT, grouping and aggregation are applied,
// ORDER BY is not — the caller checks order against the sort keys.
func naiveSelect(t *testing.T, cat *storage.Catalog, sel *sqlparse.Select) []relation.Tuple {
	t.Helper()
	var env naiveEnv
	for _, f := range sel.From {
		rel, err := cat.Get(f.Table)
		if err != nil {
			t.Fatal(err)
		}
		env = append(env, &naiveTable{binding: f.Binding(), rel: rel})
	}
	if sel.Star {
		t.Fatal("naive: SELECT * is not covered")
	}
	plain := func() relation.Tuple {
		row := make(relation.Tuple, len(sel.Items))
		for i, it := range sel.Items {
			if it.Agg == "" {
				row[i] = env.col(t, it.Col.Table, it.Col.Column)
			}
		}
		return row
	}

	if !sel.HasAggregates() && len(sel.GroupBy) == 0 {
		var rows []relation.Tuple
		seen := map[string]bool{}
		env.forEach(0, func() {
			if !env.holds(t, sel.Where) {
				return
			}
			row := plain()
			if sel.Distinct {
				if seen[row.Key()] {
					return
				}
				seen[row.Key()] = true
			}
			rows = append(rows, row)
		})
		return rows
	}

	n := len(sel.Items)
	groups := map[string]*naiveGroup{}
	var order []string
	group := func(k string, key relation.Tuple) *naiveGroup {
		g, ok := groups[k]
		if !ok {
			g = &naiveGroup{key: key, count: make([]int64, n), sumI: make([]int64, n),
				sumF: make([]float64, n), float: make([]bool, n),
				min: make([]relation.Value, n), max: make([]relation.Value, n)}
			groups[k] = g
			order = append(order, k)
		}
		return g
	}
	env.forEach(0, func() {
		if !env.holds(t, sel.Where) {
			return
		}
		var gk relation.Tuple
		for _, g := range sel.GroupBy {
			gk = append(gk, env.col(t, g.Table, g.Column))
		}
		g := group(gk.Key(), plain())
		for i, it := range sel.Items {
			switch {
			case it.Agg == "":
				continue
			case it.Star:
				g.count[i]++
				continue
			}
			v := env.col(t, it.Col.Table, it.Col.Column)
			if v.IsNull() {
				continue
			}
			g.count[i]++
			if v.Kind() == relation.KindInt {
				g.sumI[i] += v.Int64()
			} else {
				g.float[i] = true
			}
			g.sumF[i] += v.Float64()
			if g.min[i].IsNull() || v.Less(g.min[i]) {
				g.min[i] = v
			}
			if g.max[i].IsNull() || g.max[i].Less(v) {
				g.max[i] = v
			}
		}
	})
	// Without GROUP BY an aggregate yields one row even over no input.
	if len(sel.GroupBy) == 0 && len(groups) == 0 {
		group("", make(relation.Tuple, n))
	}
	rows := make([]relation.Tuple, 0, len(order))
	for _, k := range order {
		g := groups[k]
		row := g.key
		for i, it := range sel.Items {
			switch it.Agg {
			case "":
			case "COUNT":
				row[i] = relation.Int(g.count[i])
			case "SUM":
				switch {
				case g.count[i] == 0:
					row[i] = relation.Null()
				case g.float[i]:
					row[i] = relation.Float(g.sumF[i])
				default:
					row[i] = relation.Int(g.sumI[i])
				}
			case "AVG":
				if g.count[i] == 0 {
					row[i] = relation.Null()
				} else {
					row[i] = relation.Float(g.sumF[i] / float64(g.count[i]))
				}
			case "MIN":
				row[i] = g.min[i]
			case "MAX":
				row[i] = g.max[i]
			default:
				t.Fatalf("naive: unknown aggregate %q", it.Agg)
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// sortedKeys renders rows as a sorted multiset of keys.
func sortedKeys(rows []relation.Tuple) []string {
	keys := make([]string, len(rows))
	for i, row := range rows {
		keys[i] = row.Key()
	}
	sort.Strings(keys)
	return keys
}

// orderViolation reports the first adjacent pair of rows that breaks
// the statement's ORDER BY, or -1. Each sort key is located among the
// plain select items by column name.
func orderViolation(t *testing.T, sel *sqlparse.Select, rows []relation.Tuple) int {
	t.Helper()
	pos := make([]int, len(sel.OrderBy))
	for k, o := range sel.OrderBy {
		pos[k] = -1
		for i, it := range sel.Items {
			if it.Agg == "" && strings.EqualFold(it.Col.Column, o.Col.Column) &&
				(o.Col.Table == "" || it.Col.Table == "" || strings.EqualFold(it.Col.Table, o.Col.Table)) {
				pos[k] = i
				break
			}
		}
		if pos[k] < 0 {
			t.Fatalf("naive: ORDER BY %s is not a selected column", o.Col)
		}
	}
	for r := 0; r+1 < len(rows); r++ {
		for k, o := range sel.OrderBy {
			c := rows[r][pos[k]].MustCompare(rows[r+1][pos[k]])
			if o.Desc {
				c = -c
			}
			if c > 0 {
				return r
			}
			if c < 0 {
				break
			}
		}
	}
	return -1
}
