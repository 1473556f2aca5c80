// Package query is the traditional query processor of the system
// architecture (Figure 6): it parses the SQL subset the paper's examples
// use, lowers it onto the QUEL executor for the extensional answer, and
// extracts the structural analysis (tables, join predicates, restriction
// intervals) that the inference processor derives intensional answers
// from.
package query

import (
	"fmt"
	"strings"

	"intensional/internal/quel"
	"intensional/internal/relation"
	"intensional/internal/rules"
	"intensional/internal/sqlparse"
	"intensional/internal/storage"
)

// Restriction is one "attribute op constant" condition from the query,
// normalised to an interval when the operator has an interval form.
type Restriction struct {
	Attr        rules.AttrRef
	Op          string
	Val         relation.Value
	HasInterval bool
	Interval    rules.Interval
	// Conjunct is the index of the WHERE conjunct this restriction came
	// from, in flattening order — the hook Prepare uses to drop the
	// conjunct when the semantic optimizer proves it redundant. Only
	// meaningful for restrictions extracted from a conjunctive query;
	// synthesized (implied) restrictions leave it zero.
	Conjunct int
}

// String renders the restriction as written in the query.
func (r Restriction) String() string {
	return fmt.Sprintf("%s %s %s", r.Attr, r.Op, r.Val.GoString())
}

// JoinPred is one equality between attributes of two tables.
type JoinPred struct {
	L, R rules.AttrRef
}

// String renders the join predicate.
func (j JoinPred) String() string { return j.L.String() + " = " + j.R.String() }

// Analysis is the structural summary of a query that type inference works
// from. Attribute references use resolved relation names, never aliases.
type Analysis struct {
	Tables       []string
	Joins        []JoinPred
	Restrictions []Restriction
	// Projection lists the attributes the query selects — the inference
	// renderer uses it to rank which intensional descriptions the user
	// most likely wants.
	Projection []rules.AttrRef
	// Conjunctive reports whether the WHERE clause was a pure conjunction
	// of comparisons; intensional answers are only derived for
	// conjunctive queries (the paper's setting).
	Conjunctive bool
}

// Processor executes SQL queries against one catalog snapshot through
// that snapshot's one planner, which owns its secondary indexes: an
// index built for one statement serves every later statement prepared
// on the same processor.
type Processor struct {
	cat *storage.Catalog
	pl  *quel.Planner
}

// New creates a processor over the catalog whose planner tallies its
// access paths in counters, which may be nil.
func New(cat *storage.Catalog, counters *quel.Counters) *Processor {
	return &Processor{cat: cat, pl: quel.NewPlanner(cat, counters)}
}

// binder resolves table bindings and column references for one query.
type binder struct {
	cat      *storage.Catalog
	bindings []string                    // binding names in FROM order
	tables   map[string]string           // lower(binding) → table name
	schemas  map[string]*relation.Schema // lower(binding) → schema
}

func newBinder(cat *storage.Catalog, from []sqlparse.TableRef) (*binder, error) {
	b := &binder{
		cat:     cat,
		tables:  make(map[string]string),
		schemas: make(map[string]*relation.Schema),
	}
	for _, ref := range from {
		rel, err := cat.Get(ref.Table)
		if err != nil {
			return nil, err
		}
		name := ref.Binding()
		key := strings.ToLower(name)
		if _, dup := b.tables[key]; dup {
			return nil, fmt.Errorf("query: duplicate table binding %q", name)
		}
		b.bindings = append(b.bindings, name)
		b.tables[key] = rel.Name()
		b.schemas[key] = rel.Schema()
	}
	return b, nil
}

// resolve maps a possibly-unqualified column to (binding, column,
// relation name). Unqualified names must match exactly one table.
func (b *binder) resolve(table, column string) (binding, col, relName string, err error) {
	// Column names are returned in their declared spelling so the analysis
	// matches induced rules regardless of the case used in the query.
	if table != "" {
		key := strings.ToLower(table)
		schema, ok := b.schemas[key]
		if !ok {
			return "", "", "", fmt.Errorf("query: unknown table %q", table)
		}
		ci, ok := schema.Index(column)
		if !ok {
			return "", "", "", fmt.Errorf("query: table %s has no column %q", b.tables[key], column)
		}
		return table, schema.Col(ci).Name, b.tables[key], nil
	}
	var found []string
	for _, name := range b.bindings {
		if _, ok := b.schemas[strings.ToLower(name)].Index(column); ok {
			found = append(found, name)
		}
	}
	switch len(found) {
	case 0:
		return "", "", "", fmt.Errorf("query: no table has column %q", column)
	case 1:
		key := strings.ToLower(found[0])
		ci, _ := b.schemas[key].Index(column)
		return found[0], b.schemas[key].Col(ci).Name, b.tables[key], nil
	default:
		return "", "", "", fmt.Errorf("query: column %q is ambiguous (in %s)", column, strings.Join(found, ", "))
	}
}

// buildRetrieve lowers the SELECT's projection and ordering onto a QUEL
// retrieve statement, leaving the qualification for the caller.
func buildRetrieve(b *binder, sel *sqlparse.Select) (*quel.RetrieveStmt, error) {
	st := &quel.RetrieveStmt{Unique: sel.Distinct}
	if sel.Star {
		for _, name := range b.bindings {
			schema := b.schemas[strings.ToLower(name)]
			for _, col := range schema.Columns() {
				st.Target = append(st.Target, quel.Target{
					Col: quel.ColRef{Var: name, Attr: col.Name},
				})
			}
		}
	} else {
		for _, c := range sel.Columns() {
			binding, col, _, err := b.resolve(c.Table, c.Column)
			if err != nil {
				return nil, err
			}
			st.Target = append(st.Target, quel.Target{
				As:  c.As,
				Col: quel.ColRef{Var: binding, Attr: col},
			})
		}
	}
	for _, o := range sel.OrderBy {
		binding, col, _, err := b.resolve(o.Col.Table, o.Col.Column)
		if err != nil {
			return nil, err
		}
		st.SortBy = append(st.SortBy, quel.SortItem{
			Col:  quel.ColRef{Var: binding, Attr: col},
			Desc: o.Desc,
		})
	}
	return st, nil
}

// lowerExpr maps the SQL expression onto the QUEL expression grammar,
// resolving unqualified columns.
func lowerExpr(b *binder, e sqlparse.Expr) (quel.Expr, error) {
	switch e := e.(type) {
	case *sqlparse.Compare:
		l, err := lowerOperand(b, e.L)
		if err != nil {
			return nil, err
		}
		r, err := lowerOperand(b, e.R)
		if err != nil {
			return nil, err
		}
		return &quel.BinExpr{Op: e.Op, L: l, R: r}, nil
	case *sqlparse.And:
		terms := make([]quel.Expr, len(e.Terms))
		for i, t := range e.Terms {
			q, err := lowerExpr(b, t)
			if err != nil {
				return nil, err
			}
			terms[i] = q
		}
		return &quel.AndExpr{Terms: terms}, nil
	case *sqlparse.Or:
		terms := make([]quel.Expr, len(e.Terms))
		for i, t := range e.Terms {
			q, err := lowerExpr(b, t)
			if err != nil {
				return nil, err
			}
			terms[i] = q
		}
		return &quel.OrExpr{Terms: terms}, nil
	case *sqlparse.Not:
		q, err := lowerExpr(b, e.Term)
		if err != nil {
			return nil, err
		}
		return &quel.NotExpr{Term: q}, nil
	default:
		return nil, fmt.Errorf("query: unsupported expression %T", e)
	}
}

func lowerOperand(b *binder, o sqlparse.Operand) (quel.Operand, error) {
	switch o := o.(type) {
	case sqlparse.Col:
		binding, col, _, err := b.resolve(o.Table, o.Column)
		if err != nil {
			return nil, err
		}
		return quel.ColOperand{Col: quel.ColRef{Var: binding, Attr: col}}, nil
	case sqlparse.Lit:
		return quel.ConstOperand{Val: o.Val}, nil
	default:
		return nil, fmt.Errorf("query: unsupported operand %T", o)
	}
}

// analyse extracts the structural summary used by type inference.
func analyse(b *binder, sel *sqlparse.Select) (*Analysis, error) {
	an := &Analysis{Conjunctive: true}
	for _, name := range b.bindings {
		an.Tables = append(an.Tables, b.tables[strings.ToLower(name)])
	}
	if sel.Star {
		for _, name := range b.bindings {
			key := strings.ToLower(name)
			for _, col := range b.schemas[key].Columns() {
				an.Projection = append(an.Projection, rules.Attr(b.tables[key], col.Name))
			}
		}
	} else {
		for _, c := range sel.Columns() {
			_, col, relName, err := b.resolve(c.Table, c.Column)
			if err != nil {
				return nil, err
			}
			an.Projection = append(an.Projection, rules.Attr(relName, col))
		}
	}
	conjuncts := splitSQLConjuncts(sel.Where)
	for ci, c := range conjuncts {
		cmp, ok := c.(*sqlparse.Compare)
		if !ok {
			an.Conjunctive = false
			continue
		}
		lc, lIsCol := cmp.L.(sqlparse.Col)
		rc, rIsCol := cmp.R.(sqlparse.Col)
		ll, lIsLit := cmp.L.(sqlparse.Lit)
		rl, rIsLit := cmp.R.(sqlparse.Lit)
		switch {
		case lIsCol && rIsCol && cmp.Op == "=":
			_, lcol, lrel, err := b.resolve(lc.Table, lc.Column)
			if err != nil {
				return nil, err
			}
			_, rcol, rrel, err := b.resolve(rc.Table, rc.Column)
			if err != nil {
				return nil, err
			}
			an.Joins = append(an.Joins, JoinPred{
				L: rules.Attr(lrel, lcol),
				R: rules.Attr(rrel, rcol),
			})
		case lIsCol && rIsLit:
			r, err := makeRestriction(b, lc, cmp.Op, rl.Val, ci)
			if err != nil {
				return nil, err
			}
			an.Restrictions = append(an.Restrictions, r)
		case rIsCol && lIsLit:
			r, err := makeRestriction(b, rc, relation.FlipOp(cmp.Op), ll.Val, ci)
			if err != nil {
				return nil, err
			}
			an.Restrictions = append(an.Restrictions, r)
		default:
			an.Conjunctive = false
		}
	}
	return an, nil
}

// splitSQLConjuncts flattens the WHERE clause's top-level conjunction.
// Both the analyser and the Prepare rewriter index conjuncts by position
// in this flattening, so redundant-restriction dropping lines up with
// the analysis that proposed it.
func splitSQLConjuncts(e sqlparse.Expr) []sqlparse.Expr {
	if e == nil {
		return nil
	}
	if a, ok := e.(*sqlparse.And); ok {
		var out []sqlparse.Expr
		for _, t := range a.Terms {
			out = append(out, splitSQLConjuncts(t)...)
		}
		return out
	}
	return []sqlparse.Expr{e}
}

func makeRestriction(b *binder, c sqlparse.Col, op string, v relation.Value, conjunct int) (Restriction, error) {
	_, col, relName, err := b.resolve(c.Table, c.Column)
	if err != nil {
		return Restriction{}, err
	}
	r := Restriction{Attr: rules.Attr(relName, col), Op: op, Val: v, Conjunct: conjunct}
	if iv, err := rules.FromOp(op, v); err == nil {
		r.HasInterval = true
		r.Interval = iv
	}
	return r, nil
}
