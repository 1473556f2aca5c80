package query

import (
	"fmt"
	"strings"

	"intensional/internal/exec"
	"intensional/internal/plan"
	"intensional/internal/quel"
	"intensional/internal/relation"
	"intensional/internal/sqlparse"
)

// prepareAggregate lowers an aggregate/GROUP BY SELECT — the paper's
// introduction motivates summarised answers alongside intensional ones,
// and grouped aggregates are the classic summarised form — into one
// tree: the base retrieve (an Empty leaf when emptyReason marks the
// input provably empty) under an Aggregate that materializes only the
// per-group accumulators, under a Sort for a grouped ORDER BY. The where
// expression is the already-rewritten qualification.
func (p *Processor) prepareAggregate(b *binder, sel *sqlparse.Select, where quel.Expr, emptyReason string) (exec.Tree, error) {
	if sel.Star {
		return exec.Tree{}, fmt.Errorf("query: SELECT * cannot be combined with aggregates")
	}
	if sel.Distinct {
		return exec.Tree{}, fmt.Errorf("query: SELECT DISTINCT cannot be combined with aggregates")
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
	groupPos := make([]int, len(sel.GroupBy))
	groupKey := map[string]int{} // lower(binding.col) → base position
	for i, g := range sel.GroupBy {
		binding, col, _, err := b.resolve(g.Table, g.Column)
		if err != nil {
			return exec.Tree{}, err
		}
		groupPos[i] = addTarget(binding, col)
		groupKey[strings.ToLower(binding+"."+col)] = groupPos[i]
	}
	// Every plain select item must appear in GROUP BY.
	itemGroup := make([]int, len(sel.Items)) // per plain item: base position of its group column
	for i, it := range sel.Items {
		if it.Agg != "" {
			continue
		}
		binding, col, _, err := b.resolve(it.Col.Table, it.Col.Column)
		if err != nil {
			return exec.Tree{}, err
		}
		pos, ok := groupKey[strings.ToLower(binding+"."+col)]
		if !ok {
			return exec.Tree{}, fmt.Errorf("query: column %s must appear in GROUP BY", it.Col)
		}
		itemGroup[i] = pos
	}
	argPos := make([]int, len(sel.Items)) // base position of the aggregate argument; -1 for COUNT(*) or plain
	for i, it := range sel.Items {
		argPos[i] = -1
		if it.Agg == "" || it.Star {
			continue
		}
		binding, col, _, err := b.resolve(it.Col.Table, it.Col.Column)
		if err != nil {
			return exec.Tree{}, err
		}
		argPos[i] = addTarget(binding, col)
	}
	if baseCols == 0 {
		// COUNT(*) alone with no GROUP BY: fetch any column to count rows.
		name := b.bindings[0]
		schema := b.schemas[strings.ToLower(name)]
		addTarget(name, schema.Col(0).Name)
	}
	st.Where = where
	base, baseSchema, err := p.retrieve(b, st, emptyReason)
	if err != nil {
		return exec.Tree{}, err
	}

	// Output schema.
	cols := make([]relation.Column, len(sel.Items))
	for i, it := range sel.Items {
		t := relation.TInt // COUNT
		switch {
		case it.Agg == "":
			// type of the underlying group column
			t = baseSchema.Col(itemGroup[i]).Type
		case it.Agg == "AVG":
			t = relation.TFloat
		case it.Agg == "SUM", it.Agg == "MIN", it.Agg == "MAX":
			if !it.Star {
				t = baseSchema.Col(argPos[i]).Type
			}
		}
		cols[i] = relation.Column{Name: it.Label(), Type: t}
	}
	outSchema, err := relation.NewSchema(cols...)
	if err != nil {
		return exec.Tree{}, err
	}

	// Lower the items to streaming aggregate specs and top the base with
	// the Aggregate that executes them.
	aggs := make([]exec.AggItem, len(sel.Items))
	for i, it := range sel.Items {
		switch it.Agg {
		case "":
			aggs[i] = exec.AggItem{Kind: exec.AggGroup, Arg: itemGroup[i]}
		case "COUNT":
			aggs[i] = exec.AggItem{Kind: exec.AggCount, Arg: argPos[i]}
		case "SUM":
			aggs[i] = exec.AggItem{Kind: exec.AggSum, Arg: argPos[i]}
		case "AVG":
			aggs[i] = exec.AggItem{Kind: exec.AggAvg, Arg: argPos[i]}
		case "MIN":
			aggs[i] = exec.AggItem{Kind: exec.AggMin, Arg: argPos[i]}
		case "MAX":
			aggs[i] = exec.AggItem{Kind: exec.AggMax, Arg: argPos[i]}
		default:
			return exec.Tree{}, fmt.Errorf("query: unsupported aggregate %q", it.Agg)
		}
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
		est = base.Node.EstRows()
	}
	t := base.Wrap(&plan.Aggregate{
		Items:   items,
		GroupBy: groupBy,
		Est:     est,
		Cols:    planColumns(outSchema),
		Input:   base.Node,
	}, func(in exec.Operator) exec.Operator { return exec.NewAggregate(outSchema, groupPos, aggs, in) })
	if len(sel.OrderBy) == 0 {
		return t, nil
	}

	// A grouped ORDER BY sorts the groups the Aggregate emits. An
	// unqualified key names an output column by label; a qualified one
	// names a GROUP BY column, resolved through the binder, that the
	// query selects.
	keys := make([]string, len(sel.OrderBy))
	sorts := make([]exec.SortSpec, len(sel.OrderBy))
	for i, o := range sel.OrderBy {
		ci, ok := outSchema.Index(o.Col.Column)
		if o.Col.Table != "" {
			binding, col, _, err := b.resolve(o.Col.Table, o.Col.Column)
			if err != nil {
				return exec.Tree{}, err
			}
			pos, grouped := groupKey[strings.ToLower(binding+"."+col)]
			if !grouped {
				return exec.Tree{}, fmt.Errorf("query: ORDER BY %s: column must appear in GROUP BY", o.Col)
			}
			ci, ok = -1, false
			for ii, it := range sel.Items {
				if it.Agg == "" && itemGroup[ii] == pos {
					ci, ok = ii, true
					break
				}
			}
		}
		if !ok {
			return exec.Tree{}, fmt.Errorf("query: ORDER BY %s: not an output column of the grouped query", o.Col)
		}
		keys[i] = outSchema.Col(ci).Name
		if o.Desc {
			keys[i] += " desc"
		}
		sorts[i] = exec.SortSpec{Col: ci, Desc: o.Desc}
	}
	return t.Wrap(&plan.Sort{Keys: keys, Input: t.Node},
		func(in exec.Operator) exec.Operator { return exec.NewSort(sorts, in) }), nil
}
