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

// aggPlan is a prepared aggregate/GROUP BY SELECT: the paper's
// introduction motivates summarised answers alongside intensional ones,
// and grouped aggregates are the classic summarised form. The base rows
// are produced by a prepared QUEL retrieve (or, when the semantic
// optimizer proved the input empty, by no retrieve at all); grouping and
// accumulation happen in runContext.
type aggPlan struct {
	sel *sqlparse.Select
	// rp produces the base rows; nil when the input is provably empty,
	// in which case baseSchema alone types the (empty) base.
	rp          *quel.RetrievePlan
	baseSchema  *relation.Schema
	outSchema   *relation.Schema
	emptyReason string
	groupPos    []int // base positions of the GROUP BY columns
	argPos      []int // per item: base position of the aggregate argument; -1 for COUNT(*) or plain
	itemGroup   []int // per plain item: base position of its group column

	// Lowered streaming form, built once at prepare time: the aggregate
	// item specs and the plan node the Aggregate operator executes
	// (node.Input is the base input's node, reused for the proven-empty
	// source).
	items []exec.AggItem
	node  *plan.Aggregate
	// sortNode and sorts order the groups for a grouped ORDER BY; nil
	// without one.
	sortNode *plan.Sort
	sorts    []exec.SortSpec
}

// prepareAggregate validates the aggregate query, plans the base
// retrieve (unless emptyReason marks the input provably empty), and
// fixes both base and output schemas. The where expression is the
// already-rewritten qualification.
func (p *Processor) prepareAggregate(b *binder, sel *sqlparse.Select, where quel.Expr, emptyReason string) (*aggPlan, error) {
	if sel.Star {
		return nil, fmt.Errorf("query: SELECT * cannot be combined with aggregates")
	}
	if sel.Distinct {
		return nil, fmt.Errorf("query: SELECT DISTINCT cannot be combined with aggregates")
	}

	// Every plain select item must appear in GROUP BY.
	groupKey := map[string]bool{}
	type colRef struct {
		binding, col string
	}
	var groupCols []colRef
	for _, g := range sel.GroupBy {
		binding, col, _, err := b.resolve(g.Table, g.Column)
		if err != nil {
			return nil, err
		}
		groupCols = append(groupCols, colRef{binding, col})
		groupKey[strings.ToLower(binding+"."+col)] = true
	}
	for _, it := range sel.Items {
		if it.Agg != "" {
			continue
		}
		binding, col, _, err := b.resolve(it.Col.Table, it.Col.Column)
		if err != nil {
			return nil, err
		}
		if !groupKey[strings.ToLower(binding+"."+col)] {
			return nil, fmt.Errorf("query: column %s must appear in GROUP BY", it.Col)
		}
	}

	// Base retrieve: group columns first, then aggregate arguments.
	st := &quel.RetrieveStmt{}
	baseCols := 0
	addTarget := func(binding, col string) int {
		st.Target = append(st.Target, quel.Target{
			As:  fmt.Sprintf("c%d", baseCols),
			Col: quel.ColRef{Var: binding, Attr: col},
		})
		baseCols++
		return baseCols - 1
	}
	ap := &aggPlan{sel: sel, emptyReason: emptyReason}
	ap.groupPos = make([]int, len(groupCols))
	for i, g := range groupCols {
		ap.groupPos[i] = addTarget(g.binding, g.col)
	}
	ap.argPos = make([]int, len(sel.Items))
	ap.itemGroup = make([]int, len(sel.Items))
	for i, it := range sel.Items {
		ap.argPos[i] = -1
		if it.Agg == "" {
			binding, col, _, err := b.resolve(it.Col.Table, it.Col.Column)
			if err != nil {
				return nil, err
			}
			for gi, g := range groupCols {
				if strings.EqualFold(g.binding, binding) && strings.EqualFold(g.col, col) {
					ap.itemGroup[i] = ap.groupPos[gi]
				}
			}
			continue
		}
		if it.Star {
			continue
		}
		binding, col, _, err := b.resolve(it.Col.Table, it.Col.Column)
		if err != nil {
			return nil, err
		}
		ap.argPos[i] = addTarget(binding, col)
	}
	if baseCols == 0 {
		// COUNT(*) alone with no GROUP BY: fetch any column to count rows.
		name := b.bindings[0]
		schema := b.schemas[strings.ToLower(name)]
		addTarget(name, schema.Col(0).Name)
	}
	st.Where = where

	sess, err := p.session(b)
	if err != nil {
		return nil, err
	}
	if emptyReason != "" {
		ap.baseSchema, err = sess.RetrieveSchema(st)
		if err != nil {
			return nil, err
		}
	} else {
		ap.rp, err = sess.PlanRetrieve(st)
		if err != nil {
			return nil, err
		}
		ap.baseSchema = ap.rp.Schema()
	}

	// Output schema.
	cols := make([]relation.Column, len(sel.Items))
	for i, it := range sel.Items {
		t := relation.TInt // COUNT
		switch {
		case it.Agg == "":
			// type of the underlying group column
			t = ap.baseSchema.Col(ap.itemGroup[i]).Type
		case it.Agg == "AVG":
			t = relation.TFloat
		case it.Agg == "SUM", it.Agg == "MIN", it.Agg == "MAX":
			if !it.Star {
				t = ap.baseSchema.Col(ap.argPos[i]).Type
			}
		}
		cols[i] = relation.Column{Name: it.Label(), Type: t}
	}
	ap.outSchema, err = relation.NewSchema(cols...)
	if err != nil {
		return nil, err
	}

	// Lower the items to streaming aggregate specs and fix the plan node
	// the Aggregate operator will execute.
	ap.items = make([]exec.AggItem, len(sel.Items))
	for i, it := range sel.Items {
		switch it.Agg {
		case "":
			ap.items[i] = exec.AggItem{Kind: exec.AggGroup, Arg: ap.itemGroup[i]}
		case "COUNT":
			ap.items[i] = exec.AggItem{Kind: exec.AggCount, Arg: ap.argPos[i]}
		case "SUM":
			ap.items[i] = exec.AggItem{Kind: exec.AggSum, Arg: ap.argPos[i]}
		case "AVG":
			ap.items[i] = exec.AggItem{Kind: exec.AggAvg, Arg: ap.argPos[i]}
		case "MIN":
			ap.items[i] = exec.AggItem{Kind: exec.AggMin, Arg: ap.argPos[i]}
		case "MAX":
			ap.items[i] = exec.AggItem{Kind: exec.AggMax, Arg: ap.argPos[i]}
		default:
			return nil, fmt.Errorf("query: unsupported aggregate %q", it.Agg)
		}
	}
	var input plan.Node
	if ap.rp == nil {
		input = &plan.Empty{Reason: emptyReason, Cols: planColumns(ap.baseSchema)}
	} else {
		input = ap.rp.Describe()
	}
	items := make([]string, len(sel.Items))
	for i, it := range sel.Items {
		items[i] = it.Label()
	}
	var groupBy []string
	for _, g := range sel.GroupBy {
		groupBy = append(groupBy, g.String())
	}
	est := 1
	if len(groupBy) > 0 {
		est = input.EstRows()
	}
	ap.node = &plan.Aggregate{
		Items:   items,
		GroupBy: groupBy,
		Est:     est,
		Cols:    planColumns(ap.outSchema),
		Input:   input,
	}

	// A grouped ORDER BY names output columns by label; it sorts the
	// groups the Aggregate emits.
	if len(sel.OrderBy) > 0 {
		keys := make([]string, len(sel.OrderBy))
		for i, o := range sel.OrderBy {
			ci, ok := ap.outSchema.Index(o.Col.Column)
			if !ok {
				return nil, fmt.Errorf("query: ORDER BY %s: not an output column of the grouped query", o.Col.Column)
			}
			keys[i] = ap.outSchema.Col(ci).Name
			if o.Desc {
				keys[i] += " desc"
			}
			ap.sorts = append(ap.sorts, exec.SortSpec{Col: ci, Desc: o.Desc})
		}
		ap.sortNode = &plan.Sort{Keys: keys, Input: ap.node}
	}
	return ap, nil
}

// describe renders the aggregate plan tree — the node objects the
// streaming operators execute.
func (ap *aggPlan) describe() plan.Node {
	if ap.sortNode != nil {
		return ap.sortNode
	}
	return ap.node
}

// runContext executes the prepared aggregate through the streaming
// pipeline: the base retrieve streams into an Aggregate operator, which
// materializes only the per-group accumulators, and a grouped ORDER BY
// sorts the groups.
func (ap *aggPlan) runContext(ctx context.Context) (*relation.Relation, error) {
	var src exec.Operator
	if ap.rp == nil {
		src = exec.NewEmpty(ap.node.Input, ap.baseSchema)
	} else {
		src = ap.rp.Stream()
	}
	var op exec.Operator = exec.NewAggregate(ap.node, ap.outSchema, ap.groupPos, ap.items, src)
	if ap.sortNode != nil {
		op = exec.NewSort(ap.sortNode, ap.sorts, op)
	}
	rows, err := exec.Collect(ctx, op, ap.node.Est)
	if err != nil {
		return nil, err
	}
	return relation.FromRows("result", ap.outSchema, rows), nil
}
