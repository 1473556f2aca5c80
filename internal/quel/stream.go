package quel

import (
	"fmt"
	"strings"

	"intensional/internal/exec"
	"intensional/internal/plan"
	"intensional/internal/relation"
)

// This file lowers a scanPlan into the streaming operator pipeline. The
// lowering happens once, at PlanRetrieve time: every plan.Plan node is
// built here, wired into the tree Describe returns, and kept on the
// spec that constructs the matching exec operator — so the plan EXPLAIN
// shows and the tree that runs cannot drift. Each Run instantiates a
// fresh single-use operator tree from the spec (prepared statements
// execute concurrently; specs are immutable after planning).

// rowValueFn evaluates an operand over a concatenated pipeline row.
type rowValueFn func(relation.Tuple) relation.Value

// compileRow compiles an expression into a predicate over concatenated
// pipeline rows — the only place a qualification becomes executable.
// offs maps each variable slot to its column offset in the row; every
// slot the expression touches must be bound (offset >= 0) by the time
// the predicate runs.
func (p *planner) compileRow(e Expr, offs []int) (exec.Pred, error) {
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
			off, err := p.colOffset(c.Col, offs)
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
		l, err := p.compileRowOperand(e.L, offs)
		if err != nil {
			return nil, err
		}
		r, err := p.compileRowOperand(e.R, offs)
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
			c, err := p.compileRow(t, offs)
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
			c, err := p.compileRow(t, offs)
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
		c, err := p.compileRow(e.Term, offs)
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
	p := &planner{vars: []string{v}, varIdx: map[string]int{strings.ToLower(v): 0}, rels: []*relation.Relation{rel}}
	return p.compileRow(e, []int{0})
}

// colOffset resolves a column reference to its position in the
// concatenated pipeline row.
func (p *planner) colOffset(c ColRef, offs []int) (int, error) {
	slot, ai, err := p.colSlot(c)
	if err != nil {
		return 0, err
	}
	if offs[slot] < 0 {
		return 0, fmt.Errorf("quel: internal: %s read before its variable is bound in the pipeline", c)
	}
	return offs[slot] + ai, nil
}

func (p *planner) compileRowOperand(o Operand, offs []int) (rowValueFn, error) {
	switch o := o.(type) {
	case ColOperand:
		off, err := p.colOffset(o.Col, offs)
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

// scanSpec is the compiled streaming form of one access path: the plan
// leaf it executes, the optional pushed-down filter on top, and the
// index bits when the planner chose an index.
type scanSpec struct {
	slot       int
	rel        *relation.Relation
	scanNode   plan.Node    // *plan.IndexScan or *plan.FullScan
	filterNode *plan.Filter // nil when no extra predicates
	pred       exec.Pred    // combined extra predicates; nil when none
	// Index access path (nil ix means full scan):
	ix      *relation.Index
	op      string
	val     relation.Value
	selAttr int
	// selPred re-checks the index condition; the scan consults it only
	// when it degrades to a full scan.
	selPred exec.Pred
}

// top returns the spec's plan subtree: the filter when present, else
// the scan leaf.
func (sc *scanSpec) top() plan.Node {
	if sc.filterNode != nil {
		return sc.filterNode
	}
	return sc.scanNode
}

// joinSpec binds one more variable into the pipeline: by hash join over
// absolute key offsets, or by cross product when leftKey is empty.
type joinSpec struct {
	right    *scanSpec
	leftKey  []int // offsets into the probe row
	rightKey []int // attribute positions in the right relation
	node     plan.Node
	schema   *relation.Schema // concatenated pipeline schema after this join
}

// filterSpec is a compiled residual filter and its plan node.
type filterSpec struct {
	pred exec.Pred
	node *plan.Filter
}

// streamSpec is the fully lowered retrieve: scan specs, join order,
// residual filter, projection, and the plan tree assembled from exactly
// the nodes the operators will execute.
type streamSpec struct {
	sess     *Session
	dual     bool // zero range variables: emit one empty row
	dualNode plan.Node
	seed     *scanSpec
	joins    []joinSpec
	residual *filterSpec
	projCols []int
	projNode *plan.Project
	schema   *relation.Schema // output schema
	distinct *plan.Distinct   // nil unless retrieve unique
	sortNode *plan.Sort       // nil unless sorted
	sorts    []exec.SortSpec
	est      int
}

// buildStream lowers the planned retrieve into a streamSpec, building
// the plan tree as it goes. Called once from PlanRetrieve.
func (rp *RetrievePlan) buildStream() error {
	p, sp := rp.p, rp.sp
	ss := &streamSpec{sess: p.sess, est: sp.est, schema: rp.schema}
	n := len(p.vars)
	var root plan.Node

	// qual renders one slot's columns qualified as "var.attr" — slot
	// names are unique, so the concatenated pipeline schema stays valid
	// even when the same relation is ranged twice.
	qual := func(slot int) []relation.Column {
		sch := p.rels[slot].Schema()
		out := make([]relation.Column, sch.Len())
		for i := 0; i < sch.Len(); i++ {
			c := sch.Col(i)
			out[i] = relation.Column{Name: p.vars[slot] + "." + c.Name, Type: c.Type}
		}
		return out
	}

	if n == 0 {
		ss.dual = true
		ss.dualNode = &plan.FullScan{Relation: "dual", Est: 1}
		root = ss.dualNode
	} else {
		offs := make([]int, n)
		for i := range offs {
			offs[i] = -1
		}
		seed, err := buildScanSpec(p, sp, &sp.paths[0])
		if err != nil {
			return err
		}
		ss.seed = seed
		root = seed.top()
		offs[0] = 0
		width := p.rels[0].Schema().Len()
		pipeCols := qual(0)

		for _, step := range sp.steps {
			right, err := buildScanSpec(p, sp, &sp.paths[step.next])
			if err != nil {
				return err
			}
			js := joinSpec{right: right}
			for _, e := range step.edges {
				js.leftKey = append(js.leftKey, offs[e.boundSlot]+e.boundAttr)
				js.rightKey = append(js.rightKey, e.nextAttr)
			}
			if len(step.edges) == 0 {
				js.node = &plan.CrossJoin{Est: step.est, Left: root, Right: right.top()}
			} else {
				js.node = &plan.HashJoin{On: step.on, Est: step.est, Left: root, Right: right.top()}
			}
			root = js.node
			offs[step.next] = width
			width += p.rels[step.next].Schema().Len()
			pipeCols = append(pipeCols, qual(step.next)...)
			js.schema, err = relation.NewSchema(pipeCols...)
			if err != nil {
				return err
			}
			ss.joins = append(ss.joins, js)
		}

		if len(sp.residual) > 0 {
			conds := make([]string, len(sp.residual))
			preds := make([]exec.Pred, len(sp.residual))
			for i, c := range sp.residual {
				conds[i] = c.label()
				pred, err := p.compileRow(c.expr, offs)
				if err != nil {
					return err
				}
				preds[i] = pred
			}
			node := &plan.Filter{Conds: conds, Est: sp.est, Input: root}
			root = node
			ss.residual = &filterSpec{pred: combinePreds(preds), node: node}
		}

		ss.projCols = make([]int, len(rp.infos))
		for i, info := range rp.infos {
			ss.projCols[i] = offs[info.slot] + info.attr
		}
	}

	cols := make([]plan.Column, rp.schema.Len())
	for i := 0; i < rp.schema.Len(); i++ {
		c := rp.schema.Col(i)
		cols[i] = plan.Column{Name: c.Name, Type: c.Type.String()}
	}
	ss.projNode = &plan.Project{Cols: cols, Est: sp.est, Input: root}
	root = ss.projNode
	if rp.st.Unique {
		ss.distinct = &plan.Distinct{Input: root}
		root = ss.distinct
	}
	if len(rp.keys) > 0 {
		keys := make([]string, len(rp.keys))
		for i, k := range rp.keys {
			keys[i] = k.Column
			if k.Desc {
				keys[i] += " desc"
			}
			ci, ok := rp.schema.Index(k.Column)
			if !ok {
				return fmt.Errorf("quel: internal: sort key %s not in output schema", k.Column)
			}
			ss.sorts = append(ss.sorts, exec.SortSpec{Col: ci, Desc: k.Desc})
		}
		ss.sortNode = &plan.Sort{Keys: keys, Input: root}
	}
	rp.ss = ss
	return nil
}

// root returns the plan tree Describe renders — assembled from the same
// nodes the operator tree executes.
func (ss *streamSpec) root() plan.Node {
	if ss.sortNode != nil {
		return ss.sortNode
	}
	if ss.distinct != nil {
		return ss.distinct
	}
	return ss.projNode
}

// buildScanSpec compiles one access path: plan leaf node, pushed-down
// filter, and row predicates. Index paths keep the selection out of the
// filter (the index serves it exactly) but carry a compiled re-check
// for fallback mode; full-scan paths filter on every pushed-down
// predicate.
func buildScanSpec(p *planner, sp *scanPlan, ap *accessPath) (*scanSpec, error) {
	rel := p.rels[ap.slot]
	sc := &scanSpec{slot: ap.slot, rel: rel}

	// Single-slot offsets: the scan's predicates run over the raw
	// relation row, so this slot sits at offset 0.
	offs := make([]int, len(p.vars))
	for i := range offs {
		offs[i] = -1
	}
	offs[ap.slot] = 0

	cols := planSchema(rel.Schema())
	alias := p.vars[ap.slot]
	var extra []*conjunct
	if ap.ix != nil {
		sc.ix = ap.ix
		sc.op = ap.sel.selOp
		sc.val = ap.sel.selVal
		sc.selAttr = ap.sel.selAttr
		sel, err := p.compileRow(ap.sel.expr, offs)
		if err != nil {
			return nil, err
		}
		sc.selPred = sel
		sc.scanNode = &plan.IndexScan{
			Relation: rel.Name(),
			Binding:  alias,
			Column:   rel.Schema().Col(ap.sel.selAttr).Name,
			Op:       ap.sel.selOp,
			Value:    ap.sel.selVal.GoString(),
			Est:      selectivity(mustCount(ap), 0),
			Cols:     cols,
			Implied:  ap.sel.implied,
		}
		for _, c := range ap.preds {
			if c != ap.sel {
				extra = append(extra, c)
			}
		}
	} else {
		sc.scanNode = &plan.FullScan{
			Relation: rel.Name(),
			Binding:  alias,
			Est:      rel.Len(),
			Cols:     cols,
			Fallback: ap.fallback,
		}
		extra = ap.preds
	}
	if len(extra) > 0 {
		conds := make([]string, len(extra))
		preds := make([]exec.Pred, len(extra))
		for i, c := range extra {
			conds[i] = c.label()
			pred, err := p.compileRow(c.expr, offs)
			if err != nil {
				return nil, err
			}
			preds[i] = pred
		}
		sc.pred = combinePreds(preds)
		sc.filterNode = &plan.Filter{Conds: conds, Est: ap.est, Input: sc.scanNode}
	}
	return sc, nil
}

// scanOp instantiates one access path's operator subtree, wiring the
// session's index-rebuild and scan-counter hooks.
func (ss *streamSpec) scanOp(sc *scanSpec) exec.Operator {
	sess := ss.sess
	var op exec.Operator
	if sc.ix != nil {
		rel, attr := sc.rel, sc.selAttr
		hooks := exec.IndexScanHooks{
			Rebuild: func() *relation.Index {
				ix, _ := sess.indexFor(rel, attr)
				return ix
			},
			OnIndexScan: sess.countIndexScan,
			OnFullScan:  sess.countFullScan,
			OnFallback: func(reason string) {
				sess.noteFallback(rel.Name(), rel.Schema().Col(attr).Name, reason)
			},
		}
		op = exec.NewIndexScan(sc.scanNode, rel, sc.ix, sc.op, sc.val, sc.selPred, hooks)
	} else {
		op = exec.NewFullScan(sc.scanNode, sc.rel, sess.countFullScan)
	}
	if sc.pred != nil {
		op = exec.NewFilter(sc.filterNode, sc.pred, op)
	}
	return op
}

// instantiate builds a fresh single-use operator tree for one run.
func (ss *streamSpec) instantiate() exec.Operator {
	var op exec.Operator
	if ss.dual {
		op = exec.NewValues(ss.dualNode, ss.schema, []relation.Tuple{{}})
	} else {
		op = ss.scanOp(ss.seed)
		for i := range ss.joins {
			j := &ss.joins[i]
			right := ss.scanOp(j.right)
			if len(j.leftKey) == 0 {
				op = exec.NewCrossJoin(j.node, j.schema, op, right)
			} else {
				op = exec.NewHashJoin(j.node, j.schema, op, right,
					exec.KeyOf(j.leftKey), exec.KeyOf(j.rightKey))
			}
		}
		if ss.residual != nil {
			op = exec.NewFilter(ss.residual.node, ss.residual.pred, op)
		}
	}
	op = exec.NewProject(ss.projNode, ss.schema, ss.projCols, op)
	if ss.distinct != nil {
		op = exec.NewDistinct(ss.distinct, op)
	}
	if ss.sortNode != nil {
		op = exec.NewSort(ss.sortNode, ss.sorts, op)
	}
	return op
}
