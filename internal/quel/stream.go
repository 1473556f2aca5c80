package quel

import (
	"fmt"
	"strings"

	"intensional/internal/exec"
	"intensional/internal/plan"
	"intensional/internal/relation"
)

// This file lowers a scanPlan into one exec.Tree. The lowering happens
// once, at PlanRetrieve time, in a single pass: every plan node is built
// together with the factory of the operator that executes it, so the
// plan EXPLAIN shows and the tree that runs cannot drift. Each Run
// builds a fresh single-use operator tree from the factories (prepared
// statements execute concurrently; a Tree is immutable once built).

// rowValueFn evaluates an operand over a concatenated pipeline row.
type rowValueFn func(relation.Tuple) relation.Value

// compileRow compiles an expression into a predicate over concatenated
// pipeline rows — the only place a qualification becomes executable.
// offs maps each variable slot to its column offset in the row; every
// slot the expression touches must be bound (offset >= 0) by the time
// the predicate runs.
func (sc *scope) compileRow(e Expr, offs []int) (exec.Pred, error) {
	switch e := e.(type) {
	case *BinExpr:
		// Column against constant, the common selection, reads the cell
		// directly instead of through two operand closures.
		op, col, k := e.Op, e.L, e.R
		if _, ok := col.(ConstOperand); ok {
			op, col, k = relation.FlipOp(e.Op), e.R, e.L
		}
		c, isCol := col.(ColOperand)
		v, isConst := k.(ConstOperand)
		if isCol && isConst {
			off, err := sc.colOffset(c.Col, offs)
			if err != nil {
				return nil, err
			}
			holds, err := relation.CompareOp(op)
			if err != nil {
				return nil, err
			}
			val := v.Val
			return func(t relation.Tuple) bool {
				n, err := t[off].Compare(val)
				return err == nil && holds(n)
			}, nil
		}
		l, err := sc.compileRowOperand(e.L, offs)
		if err != nil {
			return nil, err
		}
		r, err := sc.compileRowOperand(e.R, offs)
		if err != nil {
			return nil, err
		}
		holds, err := relation.CompareOp(e.Op)
		if err != nil {
			return nil, err
		}
		return func(t relation.Tuple) bool {
			c, err := l(t).Compare(r(t))
			return err == nil && holds(c)
		}, nil
	case *AndExpr:
		terms := make([]exec.Pred, len(e.Terms))
		for i, t := range e.Terms {
			c, err := sc.compileRow(t, offs)
			if err != nil {
				return nil, err
			}
			terms[i] = c
		}
		return func(t relation.Tuple) bool {
			for _, term := range terms {
				if !term(t) {
					return false
				}
			}
			return true
		}, nil
	case *OrExpr:
		terms := make([]exec.Pred, len(e.Terms))
		for i, t := range e.Terms {
			c, err := sc.compileRow(t, offs)
			if err != nil {
				return nil, err
			}
			terms[i] = c
		}
		return func(t relation.Tuple) bool {
			for _, term := range terms {
				if term(t) {
					return true
				}
			}
			return false
		}, nil
	case *NotExpr:
		c, err := sc.compileRow(e.Term, offs)
		if err != nil {
			return nil, err
		}
		return func(t relation.Tuple) bool { return !c(t) }, nil
	default:
		return nil, fmt.Errorf("quel: unknown expression %T", e)
	}
}

// CompileQual compiles a qualification over the single range variable v,
// ranging over rel, into a predicate over rel's own rows — the
// qualification compiler every retrieve uses, exported for callers that
// scan a relation themselves (SQL DELETE and UPDATE).
func CompileQual(v string, rel *relation.Relation, e Expr) (exec.Pred, error) {
	sc := &scope{vars: []string{v}, varIdx: map[string]int{strings.ToLower(v): 0}, rels: []*relation.Relation{rel}}
	return sc.compileRow(e, []int{0})
}

// colOffset resolves a column reference to its position in the
// concatenated pipeline row.
func (sc *scope) colOffset(c ColRef, offs []int) (int, error) {
	slot, ai, err := sc.colSlot(c)
	if err != nil {
		return 0, err
	}
	if offs[slot] < 0 {
		return 0, fmt.Errorf("quel: internal: %s read before its variable is bound in the pipeline", c)
	}
	return offs[slot] + ai, nil
}

func (sc *scope) compileRowOperand(o Operand, offs []int) (rowValueFn, error) {
	switch o := o.(type) {
	case ColOperand:
		off, err := sc.colOffset(o.Col, offs)
		if err != nil {
			return nil, err
		}
		return func(t relation.Tuple) relation.Value { return t[off] }, nil
	case ConstOperand:
		v := o.Val
		return func(relation.Tuple) relation.Value { return v }, nil
	default:
		return nil, fmt.Errorf("quel: unknown operand %T", o)
	}
}

// combinePreds conjoins compiled row predicates.
func combinePreds(preds []exec.Pred) exec.Pred {
	if len(preds) == 1 {
		return preds[0]
	}
	return func(t relation.Tuple) bool {
		for _, p := range preds {
			if !p(t) {
				return false
			}
		}
		return true
	}
}

// lower builds the retrieve's plan tree and its operator factories in
// one pass, bottom-up: scan → filter → join → residual → project →
// distinct → sort.
func (sc *scope) lower(sp *scanPlan, infos []targetInfo, schema *relation.Schema, keys []relation.SortKey, unique bool) (exec.Tree, error) {
	var t exec.Tree
	projCols := make([]int, len(infos))
	if n := len(sc.vars); n == 0 {
		// Zero range variables: emit one empty row.
		t = exec.Tree{
			Node: &plan.FullScan{Relation: "dual", Est: 1},
			New:  func() exec.Operator { return exec.NewValues(schema, []relation.Tuple{{}}) },
		}
	} else {
		offs := make([]int, n)
		for i := range offs {
			offs[i] = -1
		}
		var err error
		if t, err = sc.scan(&sp.paths[0]); err != nil {
			return exec.Tree{}, err
		}
		offs[0] = 0
		width := sc.rels[0].Schema().Len()
		pipeCols := sc.qualCols(0)
		for _, step := range sp.steps {
			right, err := sc.scan(&sp.paths[step.next])
			if err != nil {
				return exec.Tree{}, err
			}
			var leftKey, rightKey []int
			for _, e := range step.edges {
				leftKey = append(leftKey, offs[e.boundSlot]+e.boundAttr)
				rightKey = append(rightKey, e.nextAttr)
			}
			offs[step.next] = width
			width += sc.rels[step.next].Schema().Len()
			pipeCols = append(pipeCols, sc.qualCols(step.next)...)
			joined, err := relation.NewSchema(pipeCols...)
			if err != nil {
				return exec.Tree{}, err
			}
			left, build := t.New, right.New
			if len(step.edges) == 0 {
				t = exec.Tree{
					Node: &plan.CrossJoin{Est: step.est, Left: t.Node, Right: right.Node},
					New: func() exec.Operator {
						return exec.NewCrossJoin(joined, left(), build())
					},
				}
			} else {
				t = exec.Tree{
					Node: &plan.HashJoin{On: step.on, Est: step.est, Left: t.Node, Right: right.Node},
					New: func() exec.Operator {
						return exec.NewHashJoin(joined, left(), build(), exec.KeyOf(leftKey), exec.KeyOf(rightKey))
					},
				}
			}
		}
		if len(sp.residual) > 0 {
			if t, err = sc.filter(t, sp.residual, offs, sp.est); err != nil {
				return exec.Tree{}, err
			}
		}
		for i, info := range infos {
			projCols[i] = offs[info.slot] + info.attr
		}
	}

	t = t.Wrap(&plan.Project{Cols: planSchema(schema), Est: sp.est, Input: t.Node},
		func(in exec.Operator) exec.Operator { return exec.NewProject(schema, projCols, in) })
	if unique {
		t = t.Wrap(&plan.Distinct{Input: t.Node}, func(in exec.Operator) exec.Operator { return exec.NewDistinct(in) })
	}
	if len(keys) > 0 {
		names := make([]string, len(keys))
		specs := make([]exec.SortSpec, len(keys))
		for i, k := range keys {
			names[i] = k.Column
			if k.Desc {
				names[i] += " desc"
			}
			ci, ok := schema.Index(k.Column)
			if !ok {
				return exec.Tree{}, fmt.Errorf("quel: internal: sort key %s not in output schema", k.Column)
			}
			specs[i] = exec.SortSpec{Col: ci, Desc: k.Desc}
		}
		t = t.Wrap(&plan.Sort{Keys: names, Input: t.Node}, func(in exec.Operator) exec.Operator { return exec.NewSort(specs, in) })
	}
	return t, nil
}

// qualCols renders one slot's columns qualified as "var.attr" — slot
// names are unique, so the concatenated pipeline schema stays valid even
// when the same relation is ranged twice.
func (sc *scope) qualCols(slot int) []relation.Column {
	sch := sc.rels[slot].Schema()
	out := make([]relation.Column, sch.Len())
	for i := 0; i < sch.Len(); i++ {
		c := sch.Col(i)
		out[i] = relation.Column{Name: sc.vars[slot] + "." + c.Name, Type: c.Type}
	}
	return out
}

// filter tops t with a Filter over the conjuncts, compiled against the
// pipeline offsets offs.
func (sc *scope) filter(t exec.Tree, conjs []*conjunct, offs []int, est int) (exec.Tree, error) {
	conds := make([]string, len(conjs))
	preds := make([]exec.Pred, len(conjs))
	for i, c := range conjs {
		conds[i] = c.label()
		pred, err := sc.compileRow(c.expr, offs)
		if err != nil {
			return exec.Tree{}, err
		}
		preds[i] = pred
	}
	pred := combinePreds(preds)
	return t.Wrap(&plan.Filter{Conds: conds, Est: est, Input: t.Node},
		func(in exec.Operator) exec.Operator { return exec.NewFilter(pred, in) }), nil
}

// scan lowers one access path: its scan leaf, wired to the planner's
// scan counters, under a Filter for the pushed-down predicates it does
// not serve. An index path keeps its selection out of the filter (the
// index serves it exactly); a full-scan path filters on every
// pushed-down predicate.
func (sc *scope) scan(ap *accessPath) (exec.Tree, error) {
	pl, rel := sc.pl, sc.rels[ap.slot]

	// Single-slot offsets: the scan's predicates run over the raw
	// relation row, so this slot sits at offset 0.
	offs := make([]int, len(sc.vars))
	for i := range offs {
		offs[i] = -1
	}
	offs[ap.slot] = 0

	cols := planSchema(rel.Schema())
	alias := sc.vars[ap.slot]
	var t exec.Tree
	extra := ap.preds
	if ap.sel != nil {
		attr, op, val := ap.sel.selAttr, ap.sel.selOp, ap.sel.selVal
		onOpen := pl.countIndexScan
		t = exec.Tree{
			Node: &plan.IndexScan{
				Relation: rel.Name(),
				Binding:  alias,
				Column:   rel.Schema().Col(attr).Name,
				Op:       op,
				Value:    val.GoString(),
				Est:      ap.count,
				Cols:     cols,
				Implied:  ap.sel.implied,
			},
			New: func() exec.Operator { return exec.NewIndexScan(rel, attr, op, val, onOpen) },
		}
		extra = nil
		for _, c := range ap.preds {
			if c != ap.sel {
				extra = append(extra, c)
			}
		}
	} else {
		onOpen := pl.countFullScan
		t = exec.Tree{
			Node: &plan.FullScan{
				Relation: rel.Name(),
				Binding:  alias,
				Est:      rel.Len(),
				Cols:     cols,
			},
			New: func() exec.Operator { return exec.NewFullScan(rel, onOpen) },
		}
	}
	if len(extra) == 0 {
		return t, nil
	}
	return sc.filter(t, extra, offs, ap.est)
}
