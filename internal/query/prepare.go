package query

import (
	"context"
	"fmt"
	"strings"

	"intensional/internal/exec"
	"intensional/internal/plan"
	"intensional/internal/quel"
	"intensional/internal/relation"
	"intensional/internal/sqlparse"
)

// Rewrites carries the semantic-optimizer decisions Prepare applies to a
// query: the paper's [CHU90]/[KING81] technique turned from advice into
// plan transformations.
type Rewrites struct {
	// Empty reports the answer is provably empty under the serving rules
	// and active domains; Because names the restrictions that prove it.
	Empty   bool
	Because []Restriction
	// Implied lists restrictions every answer tuple provably satisfies;
	// Prepare pushes them down as extra conjuncts, where the cost-based
	// planner prefers whichever is cheapest to serve from an index.
	Implied []Restriction
	// Redundant indexes into Analysis.Restrictions whose condition is
	// implied by another restriction; their conjuncts are dropped from
	// the filter.
	Redundant []int
}

// String renders the advice.
func (r *Rewrites) String() string {
	var b strings.Builder
	if r.Empty {
		for _, why := range r.Because {
			fmt.Fprintf(&b, "empty: no stored value satisfies %s\n", why)
		}
		return b.String()
	}
	for _, imp := range r.Implied {
		fmt.Fprintf(&b, "implied filter: %s\n", imp)
	}
	for _, i := range r.Redundant {
		fmt.Fprintf(&b, "redundant restriction #%d\n", i)
	}
	if b.Len() == 0 {
		b.WriteString("no semantic optimization applies\n")
	}
	return b.String()
}

// Rewriter derives semantic rewrites from a query's analysis. The core
// engine supplies one backed by semopt.Advise — this package cannot
// import semopt directly, because semopt consumes this package's
// Analysis. A rewriter must return no advice for a non-conjunctive
// analysis: only a conjunction's restriction indices line up with WHERE
// conjuncts.
type Rewriter func(*Analysis) (*Rewrites, error)

// Prepared is a planned SELECT: parsed, analysed, semantically
// rewritten, and lowered to an executable plan. Run may be called any
// number of times against the catalog snapshot the statement was
// prepared on; callers caching Prepared values must key them by
// snapshot version.
type Prepared struct {
	// SQL is the statement text the caller prepared (normalized form is
	// the caller's concern; it is echoed into the plan).
	SQL string
	// Analysis is the pristine structural summary — rewrites change the
	// executed filter, never the analysis the inference processor sees.
	Analysis *Analysis
	// Rewrites is the advice the plan was built from; nil when the
	// statement was prepared without a Rewriter.
	Rewrites *Rewrites

	applied []plan.Rewrite
	// tree is the statement's plan and the operator factory that runs
	// it: a planned retrieve, wrapped in Aggregate and Sort for a grouped
	// query, or an Empty leaf when the answer is proven empty.
	tree exec.Tree
}

// Prepare parses, analyses, optionally rewrites, and plans a SELECT.
func (p *Processor) Prepare(sql string, rw Rewriter) (*Prepared, error) {
	sel, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return p.PrepareSelect(sql, sel, rw)
}

// PrepareSelect plans an already-parsed SELECT. A nil Rewriter prepares
// the query as written.
func (p *Processor) PrepareSelect(sql string, sel *sqlparse.Select, rewriter Rewriter) (*Prepared, error) {
	b, err := newBinder(p.cat, sel.From)
	if err != nil {
		return nil, err
	}
	an, err := analyse(b, sel)
	if err != nil {
		return nil, err
	}
	var rw *Rewrites
	if rewriter != nil {
		if rw, err = rewriter(an); err != nil {
			return nil, err
		}
	}
	prep := &Prepared{SQL: sql, Analysis: an, Rewrites: rw}
	var where quel.Expr
	emptyReason := ""
	if rw != nil && rw.Empty {
		// Provably empty: the tree gets an Empty leaf that touches no
		// rows. Aggregates still fold over the (empty) input — a grand
		// total without GROUP BY produces its one row.
		reasons := make([]string, len(rw.Because))
		for i, why := range rw.Because {
			reasons[i] = "no stored value satisfies " + why.String()
		}
		emptyReason = strings.Join(reasons, "; ")
		prep.applied = append(prep.applied, plan.Rewrite{Kind: "empty", Detail: emptyReason})
	} else {
		var recs []plan.Rewrite
		if where, recs, err = lowerWhere(b, sel, an, rw); err != nil {
			return nil, err
		}
		prep.applied = append(prep.applied, recs...)
	}

	if sel.HasAggregates() || len(sel.GroupBy) > 0 {
		prep.tree, err = p.prepareAggregate(b, sel, where, emptyReason)
		return prep, err
	}
	st, err := buildRetrieve(b, sel)
	if err != nil {
		return nil, err
	}
	st.Where = where
	prep.tree, _, err = p.retrieve(b, st, emptyReason)
	return prep, err
}

// retrieve plans st over the binder's tables into a tree and returns the
// tree's output schema. When emptyReason records a proof that the answer
// is empty, the tree is an Empty leaf typed with that schema: it plans
// no access path, builds no index, and scans nothing.
func (p *Processor) retrieve(b *binder, st *quel.RetrieveStmt, emptyReason string) (exec.Tree, *relation.Schema, error) {
	if emptyReason == "" {
		rp, err := p.pl.PlanRetrieve(st, b.tables)
		if err != nil {
			return exec.Tree{}, nil, err
		}
		return rp.Tree, rp.Schema(), nil
	}
	schema, err := p.pl.RetrieveSchema(st, b.tables)
	if err != nil {
		return exec.Tree{}, nil, err
	}
	return exec.Tree{
		Node: &plan.Empty{Reason: emptyReason, Cols: planColumns(schema)},
		New:  func() exec.Operator { return exec.NewEmpty(schema) },
	}, schema, nil
}

// Run executes the prepared statement through the streaming pipeline.
func (pr *Prepared) Run() (*relation.Relation, error) {
	return pr.RunContext(context.Background())
}

// RunContext executes the prepared statement through the streaming
// operator pipeline. Cancellation is honoured at batch boundaries, so a
// cancelled context stops a long scan mid-stream; a proven-empty
// statement scans zero batches of anything.
func (pr *Prepared) RunContext(ctx context.Context) (*relation.Relation, error) {
	return pr.tree.Run(ctx, "result")
}

// Describe renders the prepared statement as a typed plan with its
// semantic rewrites.
func (pr *Prepared) Describe() *plan.Plan {
	return &plan.Plan{SQL: pr.SQL, Root: pr.tree.Node, Rewrites: pr.applied}
}

// lowerWhere lowers the WHERE clause with the rewrites applied: conjuncts
// the optimizer proved redundant are dropped, implied restrictions are
// synthesized as extra conjuncts marked for EXPLAIN. It returns the
// rewrite records actually applied.
func lowerWhere(b *binder, sel *sqlparse.Select, an *Analysis, rw *Rewrites) (quel.Expr, []plan.Rewrite, error) {
	if rw == nil || (len(rw.Redundant) == 0 && len(rw.Implied) == 0) {
		if sel.Where == nil {
			return nil, nil, nil
		}
		e, err := lowerExpr(b, sel.Where)
		return e, nil, err
	}
	var recs []plan.Rewrite
	drop := map[int]bool{}
	for _, ri := range rw.Redundant {
		if ri < 0 || ri >= len(an.Restrictions) {
			continue
		}
		r := an.Restrictions[ri]
		if !drop[r.Conjunct] {
			drop[r.Conjunct] = true
			recs = append(recs, plan.Rewrite{Kind: "redundant", Detail: "dropped " + r.String()})
		}
	}
	var terms []quel.Expr
	for ci, c := range splitSQLConjuncts(sel.Where) {
		if drop[ci] {
			continue
		}
		e, err := lowerExpr(b, c)
		if err != nil {
			return nil, nil, err
		}
		terms = append(terms, e)
	}
	for _, imp := range rw.Implied {
		es, ok := impliedConjuncts(b, imp)
		if !ok {
			continue
		}
		terms = append(terms, es...)
		recs = append(recs, plan.Rewrite{Kind: "implied", Detail: "pushed down " + describeRestriction(imp)})
	}
	switch len(terms) {
	case 0:
		return nil, recs, nil
	case 1:
		return terms[0], recs, nil
	default:
		return &quel.AndExpr{Terms: terms}, recs, nil
	}
}

// impliedConjuncts synthesizes QUEL conjuncts from an implied
// restriction's interval. The synthesis is conservative: the target
// relation must be bound exactly once in the query (a self-join makes
// the attribution ambiguous) and the bound values must conform to the
// column's type; otherwise the restriction is skipped rather than risk a
// wrong filter.
func impliedConjuncts(b *binder, r Restriction) ([]quel.Expr, bool) {
	target := ""
	for _, name := range b.bindings {
		if strings.EqualFold(b.tables[strings.ToLower(name)], r.Attr.Relation) {
			if target != "" {
				return nil, false
			}
			target = name
		}
	}
	if target == "" {
		return nil, false
	}
	schema := b.schemas[strings.ToLower(target)]
	ci, ok := schema.Index(r.Attr.Attribute)
	if !ok {
		return nil, false
	}
	colType := schema.Col(ci).Type
	col := quel.ColOperand{Col: quel.ColRef{Var: target, Attr: schema.Col(ci).Name}}
	mk := func(op string, v relation.Value) (quel.Expr, bool) {
		if !v.Conforms(colType) {
			return nil, false
		}
		return &quel.BinExpr{Op: op, L: col, R: quel.ConstOperand{Val: v}, Implied: true}, true
	}
	if !r.HasInterval {
		if r.Op == "" {
			return nil, false
		}
		e, ok := mk(r.Op, r.Val)
		if !ok {
			return nil, false
		}
		return []quel.Expr{e}, true
	}
	iv := r.Interval
	if iv.IsPoint() {
		e, ok := mk("=", iv.Lo.Value)
		if !ok {
			return nil, false
		}
		return []quel.Expr{e}, true
	}
	var out []quel.Expr
	if !iv.Lo.Unbounded {
		op := ">="
		if iv.Lo.Open {
			op = ">"
		}
		e, ok := mk(op, iv.Lo.Value)
		if !ok {
			return nil, false
		}
		out = append(out, e)
	}
	if !iv.Hi.Unbounded {
		op := "<="
		if iv.Hi.Open {
			op = "<"
		}
		e, ok := mk(op, iv.Hi.Value)
		if !ok {
			return nil, false
		}
		out = append(out, e)
	}
	return out, len(out) > 0
}

// describeRestriction renders a restriction for rewrite records,
// preferring the interval form when the operator alone would lose a
// bound.
func describeRestriction(r Restriction) string {
	if r.HasInterval && !r.Interval.IsPoint() &&
		!r.Interval.Lo.Unbounded && !r.Interval.Hi.Unbounded {
		return fmt.Sprintf("%s in %s", r.Attr, r.Interval)
	}
	if r.Op != "" {
		return r.String()
	}
	if r.HasInterval {
		return fmt.Sprintf("%s in %s", r.Attr, r.Interval)
	}
	return r.Attr.String()
}

// planColumns converts a relation schema to plan columns.
func planColumns(s *relation.Schema) []plan.Column {
	cols := make([]plan.Column, s.Len())
	for i := 0; i < s.Len(); i++ {
		c := s.Col(i)
		cols[i] = plan.Column{Name: c.Name, Type: c.Type.String()}
	}
	return cols
}
