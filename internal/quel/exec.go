package quel

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"intensional/internal/exec"
	"intensional/internal/plan"
	"intensional/internal/relation"
	"intensional/internal/storage"
)

// Counters tallies the planner's access-path decisions across queries.
// One instance is typically shared by the planners of every snapshot so
// /metrics can report scan behaviour system-wide; the zero value is
// ready to use and all fields are safe for concurrent update.
type Counters struct {
	// FullScans counts access paths that read every row of a relation.
	FullScans atomic.Int64
	// IndexScans counts access paths served by a secondary index.
	IndexScans atomic.Int64
	// IndexFallbacks counts access paths that wanted an index but had to
	// degrade to a full scan — a column holding mixed kinds or a NaN,
	// or an incomparable probe value. A steadily climbing value means
	// some query is quietly running O(n).
	IndexFallbacks atomic.Int64
}

// Planner plans retrieve statements against one catalog. Selective
// conditions on large relations are served by the relation's own sorted
// column indexes (relation.Relation.Index), which the relation rebuilds
// when its data changes; the planner reports its access-path decisions
// to counters and a logger. A Planner holds no per-statement state —
// every statement brings its own range bindings — so one planner serves
// concurrent callers.
type Planner struct {
	cat      *storage.Catalog
	counters *Counters
	logf     func(format string, args ...any)
}

// NewPlanner creates a planner over cat that tallies its access paths in
// counters and logs index fallbacks through logf; either may be nil.
func NewPlanner(cat *storage.Catalog, counters *Counters, logf func(format string, args ...any)) *Planner {
	if counters == nil {
		counters = new(Counters)
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Planner{cat: cat, counters: counters, logf: logf}
}

// indexMinRows is the relation size below which a scan beats building an
// index.
const indexMinRows = 64

// indexFor returns the relation's index on column col. A nil index with
// an empty reason means indexing is simply not worthwhile (small
// relation); a non-empty reason reports why the relation cannot index
// the column, which the caller should surface as an index fallback.
func indexFor(rel *relation.Relation, col int) (*relation.Index, string) {
	if rel.Len() < indexMinRows {
		return nil, ""
	}
	ix, err := rel.Index(col)
	if err != nil {
		return nil, err.Error()
	}
	return ix, ""
}

// noteFallback records an index that could not serve a planned access
// path — the silent-degradation case the plannerIndexFallbacks metric
// exists to expose.
func (p *Planner) noteFallback(rel, col, reason string) {
	p.counters.IndexFallbacks.Add(1)
	p.logf("quel: index fallback on %s.%s: %s", rel, col, reason)
}

func (p *Planner) countFullScan() { p.counters.FullScans.Add(1) }

func (p *Planner) countIndexScan() { p.counters.IndexScans.Add(1) }

// Session executes QUEL statements through a planner. Range
// declarations persist for the life of the session, as in INGRES.
type Session struct {
	p      *Planner
	ranges map[string]string // lower(var) → relation name
}

// NewSession creates a session over the planner's catalog.
func NewSession(p *Planner) *Session {
	return &Session{p: p, ranges: make(map[string]string)}
}

// Result reports the effect of one statement: the retrieved relation
// (for retrieve) and the tuple counts mutated by delete, append, and
// replace.
type Result struct {
	Rel      *relation.Relation
	Deleted  int
	Appended int
	Replaced int
}

// Exec parses and executes one QUEL statement.
func (s *Session) Exec(src string) (*Result, error) {
	return s.ExecContext(context.Background(), src)
}

// ExecContext parses and executes one QUEL statement. The context is
// threaded into the streaming executor for retrieves, which honours
// cancellation at batch boundaries.
func (s *Session) ExecContext(ctx context.Context, src string) (*Result, error) {
	st, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return s.ExecStmtContext(ctx, st)
}

// ExecStmt executes a parsed statement.
func (s *Session) ExecStmt(st Stmt) (*Result, error) {
	return s.ExecStmtContext(context.Background(), st)
}

// ExecStmtContext executes a parsed statement. Every qualification —
// a retrieve's, a delete's, a replace's — runs through the streaming
// executor under ctx, which honours cancellation at batch boundaries.
// Delete and replace evaluate first and apply second: the qualification
// is drained in full against the unmodified relation, and only then is
// the relation written, without consulting ctx again. A statement
// therefore either fails with nothing written or is applied whole, and
// its qualification and assignment operands never read its own writes.
func (s *Session) ExecStmtContext(ctx context.Context, st Stmt) (*Result, error) {
	switch st := st.(type) {
	case *RangeStmt:
		if !s.p.cat.Has(st.Rel) {
			return nil, fmt.Errorf("quel: range of %s: no relation %q", st.Var, st.Rel)
		}
		s.ranges[strings.ToLower(st.Var)] = st.Rel
		return &Result{}, nil
	case *RetrieveStmt:
		return s.execRetrieve(ctx, st)
	case *DeleteStmt:
		return s.execDelete(ctx, st)
	case *AppendStmt:
		return s.execAppend(st)
	case *ReplaceStmt:
		return s.execReplace(ctx, st)
	default:
		return nil, fmt.Errorf("quel: unknown statement %T", st)
	}
}

// coerce adapts a constant to a column type, parsing bare-identifier
// strings into numbers where the column demands it.
func coerce(v relation.Value, t relation.Type) (relation.Value, error) {
	if v.Conforms(t) {
		return v, nil
	}
	if v.Kind() == relation.KindString {
		return relation.ParseValue(v.Str(), t)
	}
	return relation.Value{}, fmt.Errorf("quel: value %#v does not fit column type %s", v, t)
}

func (s *Session) execAppend(st *AppendStmt) (*Result, error) {
	rel, err := s.p.cat.Get(st.Rel)
	if err != nil {
		return nil, err
	}
	row := make(relation.Tuple, rel.Schema().Len())
	for i := range row {
		row[i] = relation.Null()
	}
	for _, a := range st.Assign {
		ci, ok := rel.Schema().Index(a.Attr)
		if !ok {
			return nil, fmt.Errorf("quel: append: relation %s has no attribute %q", rel.Name(), a.Attr)
		}
		c, ok := a.Val.(ConstOperand)
		if !ok {
			return nil, fmt.Errorf("quel: append: %s must be assigned a constant", a.Attr)
		}
		v, err := coerce(c.Val, rel.Schema().Col(ci).Type)
		if err != nil {
			return nil, fmt.Errorf("quel: append %s.%s: %w", rel.Name(), a.Attr, err)
		}
		row[ci] = v
	}
	if err := rel.Insert(row); err != nil {
		return nil, err
	}
	return &Result{Appended: 1}, nil
}

// rangeRel resolves a range variable to its relation through ranges,
// which maps lower(var) to a relation name.
func rangeRel(cat *storage.Catalog, ranges map[string]string, v string) (*relation.Relation, error) {
	relName, ok := ranges[strings.ToLower(v)]
	if !ok {
		return nil, fmt.Errorf("quel: variable %q has no range declaration", v)
	}
	return cat.Get(relName)
}

// qualifying evaluates a delete or replace qualification as a retrieve
// of every column of the statement's variable v (ranging over rel)
// followed by the extra columns: one row per binding. A qualification
// is value-based, so the caller identifies the tuples it selects by the
// Tuple.Key of that leading image — duplicates of a selected tuple are
// selected with it, as they would be by any evaluation. rel is only
// read.
func (s *Session) qualifying(ctx context.Context, v string, rel *relation.Relation, where Expr, extra []ColRef) ([]relation.Tuple, error) {
	st := &RetrieveStmt{Where: where}
	for _, c := range rel.Schema().Columns() {
		st.Target = append(st.Target, Target{Col: ColRef{Var: v, Attr: c.Name}})
	}
	for _, c := range extra {
		st.Target = append(st.Target, Target{Col: c})
	}
	res, err := s.execRetrieve(ctx, st)
	if err != nil {
		return nil, err
	}
	return res.Rel.Rows(), nil
}

func (s *Session) execDelete(ctx context.Context, st *DeleteStmt) (*Result, error) {
	rel, err := rangeRel(s.p.cat, s.ranges, st.Var)
	if err != nil {
		return nil, err
	}
	hits, err := s.qualifying(ctx, st.Var, rel, st.Where, nil)
	if err != nil {
		return nil, err
	}
	if len(hits) == 0 {
		return &Result{}, nil
	}
	// Existential semantics: a target tuple dies if any binding includes it.
	doomed := make(map[string]struct{}, len(hits))
	for _, t := range hits {
		doomed[t.Key()] = struct{}{}
	}
	n := rel.Delete(func(t relation.Tuple) bool {
		_, dead := doomed[t.Key()]
		return dead
	})
	return &Result{Deleted: n}, nil
}

func (s *Session) execReplace(ctx context.Context, st *ReplaceStmt) (*Result, error) {
	rel, err := rangeRel(s.p.cat, s.ranges, st.Var)
	if err != nil {
		return nil, err
	}
	sch := rel.Schema()
	// Each assignment takes its value from a constant or, for a column
	// operand (which may belong to another range variable), from an
	// extra column of the qualification row.
	type setter struct {
		col int
		src int // column of the qualification row; -1 for a constant
		val relation.Value
	}
	setters := make([]setter, len(st.Assign))
	var extra []ColRef
	for i, a := range st.Assign {
		ci, ok := sch.Index(a.Attr)
		if !ok {
			return nil, fmt.Errorf("quel: replace: relation %s has no attribute %q", rel.Name(), a.Attr)
		}
		switch o := a.Val.(type) {
		case ColOperand:
			setters[i] = setter{col: ci, src: sch.Len() + len(extra)}
			extra = append(extra, o.Col)
		case ConstOperand:
			setters[i] = setter{col: ci, src: -1, val: o.Val}
		default:
			return nil, fmt.Errorf("quel: unknown operand %T", o)
		}
	}
	hits, err := s.qualifying(ctx, st.Var, rel, st.Where, extra)
	if err != nil {
		return nil, err
	}
	if len(hits) == 0 {
		return &Result{}, nil
	}
	// Pre-image → new values, every one coerced before any is written.
	// When several bindings select one tuple the last binding wins.
	next := make(map[string][]relation.Value, len(hits))
	for _, t := range hits {
		vals := make([]relation.Value, len(setters))
		for i, set := range setters {
			v := set.val
			if set.src >= 0 {
				v = t[set.src]
			}
			if vals[i], err = coerce(v, sch.Col(set.col).Type); err != nil {
				return nil, fmt.Errorf("quel: replace %s.%s: %w", rel.Name(), sch.Col(set.col).Name, err)
			}
		}
		next[t[:sch.Len()].Key()] = vals
	}
	replaced := 0
	for i := 0; i < rel.Len(); i++ {
		vals, ok := next[rel.Row(i).Key()]
		if !ok {
			continue
		}
		for k, set := range setters {
			if err := rel.Set(i, set.col, vals[k]); err != nil {
				return nil, err
			}
		}
		replaced++
	}
	return &Result{Replaced: replaced}, nil
}

// scope plans one statement: it resolves the statement's variables
// through its range bindings, classifies the qualification's conjuncts,
// and chooses access paths and a join order with the planner's indexes.
type scope struct {
	pl     *Planner
	ranges map[string]string // lower(var) → relation name
	vars   []string
	varIdx map[string]int
	rels   []*relation.Relation
}

func (p *Planner) newScope(ranges map[string]string) *scope {
	return &scope{pl: p, ranges: ranges, varIdx: make(map[string]int)}
}

// addVar registers a range variable, resolving its relation.
func (sc *scope) addVar(v string) (int, error) {
	key := strings.ToLower(v)
	if i, ok := sc.varIdx[key]; ok {
		return i, nil
	}
	r, err := rangeRel(sc.pl.cat, sc.ranges, v)
	if err != nil {
		return 0, err
	}
	i := len(sc.vars)
	sc.vars = append(sc.vars, v)
	sc.varIdx[key] = i
	sc.rels = append(sc.rels, r)
	return i, nil
}

// collectVars registers every variable appearing in the expression.
func (sc *scope) collectVars(e Expr) error {
	switch e := e.(type) {
	case nil:
		return nil
	case *BinExpr:
		for _, o := range []Operand{e.L, e.R} {
			if c, ok := o.(ColOperand); ok {
				if _, err := sc.addVar(c.Col.Var); err != nil {
					return err
				}
			}
		}
		return nil
	case *AndExpr:
		for _, t := range e.Terms {
			if err := sc.collectVars(t); err != nil {
				return err
			}
		}
		return nil
	case *OrExpr:
		for _, t := range e.Terms {
			if err := sc.collectVars(t); err != nil {
				return err
			}
		}
		return nil
	case *NotExpr:
		return sc.collectVars(e.Term)
	default:
		return fmt.Errorf("quel: unknown expression %T", e)
	}
}

// colSlot resolves a column reference to (variable slot, attribute index).
func (sc *scope) colSlot(c ColRef) (int, int, error) {
	slot, ok := sc.varIdx[strings.ToLower(c.Var)]
	if !ok {
		return 0, 0, fmt.Errorf("quel: variable %q has no range declaration", c.Var)
	}
	ai, ok := sc.rels[slot].Schema().Index(c.Attr)
	if !ok {
		return 0, 0, fmt.Errorf("quel: relation %s has no attribute %q", sc.rels[slot].Name(), c.Attr)
	}
	return slot, ai, nil
}

// conjunct classification for planning.
type conjunct struct {
	expr Expr
	// For a BinExpr between two columns or a column and a constant:
	isEq    bool
	lSlot   int // -1 when constant
	lAttr   int
	rSlot   int
	rAttr   int
	slotsIn map[int]bool // all slots the conjunct touches
	// Single-variable "column op constant" selections are index-usable:
	isSel   bool
	selSlot int
	selAttr int
	selOp   string
	selVal  relation.Value
	// implied marks a conjunct synthesized by the semantic optimizer
	// rather than written in the query.
	implied bool
}

// label renders the conjunct for plan display.
func (c *conjunct) label() string {
	l := c.expr.String()
	if c.implied {
		l += " [implied]"
	}
	return l
}

// splitConjuncts flattens the top-level conjunction of e.
func splitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if a, ok := e.(*AndExpr); ok {
		var out []Expr
		for _, t := range a.Terms {
			out = append(out, splitConjuncts(t)...)
		}
		return out
	}
	return []Expr{e}
}

func (sc *scope) analyse(e Expr) (*conjunct, error) {
	c := &conjunct{expr: e, lSlot: -1, rSlot: -1, slotsIn: map[int]bool{}}
	var walk func(Expr) error
	walk = func(e Expr) error {
		switch e := e.(type) {
		case *BinExpr:
			for _, o := range []Operand{e.L, e.R} {
				if col, ok := o.(ColOperand); ok {
					slot, _, err := sc.colSlot(col.Col)
					if err != nil {
						return err
					}
					c.slotsIn[slot] = true
				}
			}
		case *AndExpr:
			for _, t := range e.Terms {
				if err := walk(t); err != nil {
					return err
				}
			}
		case *OrExpr:
			for _, t := range e.Terms {
				if err := walk(t); err != nil {
					return err
				}
			}
		case *NotExpr:
			return walk(e.Term)
		}
		return nil
	}
	if err := walk(e); err != nil {
		return nil, err
	}
	if b, ok := e.(*BinExpr); ok {
		c.implied = b.Implied
		lc, lok := b.L.(ColOperand)
		rc, rok := b.R.(ColOperand)
		lv, lIsConst := b.L.(ConstOperand)
		rv, rIsConst := b.R.(ConstOperand)
		switch {
		case b.Op == "=" && lok && rok:
			ls, la, err := sc.colSlot(lc.Col)
			if err != nil {
				return nil, err
			}
			rs, ra, err := sc.colSlot(rc.Col)
			if err != nil {
				return nil, err
			}
			if ls != rs {
				c.isEq = true
				c.lSlot, c.lAttr, c.rSlot, c.rAttr = ls, la, rs, ra
			}
		case lok && rIsConst:
			slot, attr, err := sc.colSlot(lc.Col)
			if err != nil {
				return nil, err
			}
			c.isSel, c.selSlot, c.selAttr, c.selOp, c.selVal = true, slot, attr, b.Op, rv.Val
		case rok && lIsConst:
			slot, attr, err := sc.colSlot(rc.Col)
			if err != nil {
				return nil, err
			}
			c.isSel, c.selSlot, c.selAttr, c.selOp, c.selVal = true, slot, attr, relation.FlipOp(b.Op), lv.Val
		}
	}
	return c, nil
}

// accessPath is the planned way to produce one range variable's
// candidate rows: a full scan or an index range scan on the chosen
// selection, plus the remaining pushed-down single-variable predicates.
type accessPath struct {
	slot  int
	preds []*conjunct // all pushed-down single-variable conjuncts
	// sel, when set, serves the initial candidates from the relation's
	// index on its column, which holds count matching rows at plan time;
	// sel is always one of preds (its predicate re-checks cost one
	// compare).
	sel   *conjunct
	count int
	// fallback records why an index-usable selection could not get an
	// index at plan time (a column holding mixed kinds or a NaN, count
	// error); empty when an index was chosen or none was applicable.
	fallback string
	est      int
}

// joinEdge is one equality conjunct between the bound prefix and the
// variable being joined.
type joinEdge struct{ boundSlot, boundAttr, nextAttr int }

// joinStep binds one more variable: by hash join over its edges, or by
// cross product when no equality links it to the bound prefix.
type joinStep struct {
	next  int
	edges []joinEdge
	on    []string // rendered edge conditions, for plan display
	est   int      // estimated prefix cardinality after this step
}

// scanPlan is the planned qualification evaluation: per-variable access
// paths, a join order, and a residual filter. It is built once and
// lowered to an exec.Tree (stream.go), which may run many times
// (prepared statements re-run against the same snapshot).
type scanPlan struct {
	paths    []accessPath // one per slot, in slot order
	steps    []joinStep   // join order after seeding with slot 0
	residual []*conjunct
	est      int // estimated binding count after the residual filter
}

// selectivity scales a cardinality estimate by the heuristic 1/3 per
// extra predicate, holding non-zero estimates above zero.
func selectivity(est, preds int) int {
	for i := 0; i < preds && est > 1; i++ {
		est = (est + 2) / 3
	}
	return est
}

// plan classifies the qualification's conjuncts and chooses access paths
// and a join order. Access paths are cost-based: every index-usable
// selection on a slot is ranked by its exact index range count, and the
// narrowest wins — not the first one that happens to have an index.
func (sc *scope) plan(where Expr) (*scanPlan, error) {
	sp := &scanPlan{}
	n := len(sc.vars)
	if n == 0 {
		return sp, nil
	}
	var conjs []*conjunct
	for _, e := range splitConjuncts(where) {
		c, err := sc.analyse(e)
		if err != nil {
			return nil, err
		}
		conjs = append(conjs, c)
	}
	used := make([]bool, len(conjs))

	// Push down single-variable conjuncts and pick each slot's access path.
	sp.paths = make([]accessPath, n)
	for slot := 0; slot < n; slot++ {
		ap := &sp.paths[slot]
		ap.slot = slot
		var sels []*conjunct
		for ci, c := range conjs {
			if len(c.slotsIn) == 1 && c.slotsIn[slot] && !c.isEq {
				ap.preds = append(ap.preds, c)
				used[ci] = true
				if c.isSel && c.selSlot == slot {
					sels = append(sels, c)
				}
			}
		}
		rel := sc.rels[slot]
		failCol := ""
		for _, c := range sels {
			col := rel.Schema().Col(c.selAttr).Name
			ix, reason := indexFor(rel, c.selAttr)
			if ix == nil {
				if reason != "" && ap.fallback == "" {
					ap.fallback, failCol = reason, col
				}
				continue
			}
			cnt, err := ix.Count(c.selOp, c.selVal)
			if err != nil {
				if ap.fallback == "" {
					ap.fallback, failCol = err.Error(), col
				}
				continue
			}
			if ap.sel == nil || cnt < ap.count {
				ap.sel, ap.count = c, cnt
			}
		}
		if ap.sel != nil {
			// An index was chosen; any earlier candidate's failure is moot.
			ap.fallback = ""
			ap.est = selectivity(ap.count, len(ap.preds)-1)
		} else {
			if ap.fallback != "" {
				sc.pl.noteFallback(rel.Name(), failCol, ap.fallback)
			}
			ap.est = selectivity(rel.Len(), len(ap.preds))
		}
	}

	// Greedy join order: always extend the bound prefix with a variable
	// reachable by an equality conjunct, falling back to a cross product.
	bound := make([]bool, n)
	bound[0] = true
	cur := sp.paths[0].est
	for nBound := 1; nBound < n; nBound++ {
		next := -1
		for slot := 0; slot < n && next == -1; slot++ {
			if bound[slot] {
				continue
			}
			for ci, c := range conjs {
				if used[ci] || !c.isEq {
					continue
				}
				if (c.lSlot == slot && bound[c.rSlot]) || (c.rSlot == slot && bound[c.lSlot]) {
					next = slot
					break
				}
			}
		}
		if next == -1 {
			// No join edge: cross product with the first unbound variable.
			for slot := 0; slot < n; slot++ {
				if !bound[slot] {
					next = slot
					break
				}
			}
			est := cur * sp.paths[next].est
			sp.steps = append(sp.steps, joinStep{next: next, est: est})
			bound[next] = true
			cur = est
			continue
		}
		step := joinStep{next: next}
		for ci, c := range conjs {
			if used[ci] || !c.isEq {
				continue
			}
			switch {
			case c.lSlot == next && bound[c.rSlot]:
				step.edges = append(step.edges, joinEdge{boundSlot: c.rSlot, boundAttr: c.rAttr, nextAttr: c.lAttr})
				step.on = append(step.on, c.expr.String())
				used[ci] = true
			case c.rSlot == next && bound[c.lSlot]:
				step.edges = append(step.edges, joinEdge{boundSlot: c.lSlot, boundAttr: c.lAttr, nextAttr: c.rAttr})
				step.on = append(step.on, c.expr.String())
				used[ci] = true
			}
		}
		// Equi-join estimate: the smaller input bounds the matches.
		step.est = cur
		if sp.paths[next].est < step.est {
			step.est = sp.paths[next].est
		}
		sp.steps = append(sp.steps, step)
		bound[next] = true
		cur = step.est
	}

	// Residual filter: every conjunct not yet consumed.
	for ci, c := range conjs {
		if !used[ci] {
			sp.residual = append(sp.residual, c)
		}
	}
	sp.est = selectivity(cur, len(sp.residual))
	return sp, nil
}

// planSchema converts a relation schema to plan columns.
func planSchema(s *relation.Schema) []plan.Column {
	cols := make([]plan.Column, s.Len())
	for i := 0; i < s.Len(); i++ {
		c := s.Col(i)
		cols[i] = plan.Column{Name: c.Name, Type: c.Type.String()}
	}
	return cols
}

// targetInfo maps one projection target to its (slot, attribute) source
// and resolved output name.
type targetInfo struct {
	slot, attr int
	name       string
}

// resolveTargets resolves the statement's projection list against the
// scope's variables and builds the output schema. It touches no rows.
func resolveTargets(sc *scope, st *RetrieveStmt) ([]targetInfo, *relation.Schema, error) {
	infos := make([]targetInfo, len(st.Target))
	usedNames := map[string]bool{}
	for i, t := range st.Target {
		slot, ai, err := sc.colSlot(t.Col)
		if err != nil {
			return nil, nil, err
		}
		name := t.As
		if name == "" {
			name = sc.rels[slot].Schema().Col(ai).Name
		}
		if usedNames[strings.ToLower(name)] {
			name = t.Col.Var + "." + name
		}
		for usedNames[strings.ToLower(name)] {
			name += "_"
		}
		usedNames[strings.ToLower(name)] = true
		infos[i] = targetInfo{slot: slot, attr: ai, name: name}
	}
	cols := make([]relation.Column, len(infos))
	for i, info := range infos {
		cols[i] = relation.Column{
			Name: info.name,
			Type: sc.rels[info.slot].Schema().Col(info.attr).Type,
		}
	}
	schema, err := relation.NewSchema(cols...)
	if err != nil {
		return nil, nil, err
	}
	return infos, schema, nil
}

// bindVars registers every range variable the statement mentions.
func (sc *scope) bindVars(st *RetrieveStmt) error {
	for _, t := range st.Target {
		if _, err := sc.addVar(t.Col.Var); err != nil {
			return err
		}
	}
	if err := sc.collectVars(st.Where); err != nil {
		return err
	}
	for _, c := range st.SortBy {
		if _, err := sc.addVar(c.Col.Var); err != nil {
			return err
		}
	}
	return nil
}

// RetrieveSchema resolves the statement's output schema — names and
// types of the result columns — without planning access paths or
// touching any rows. It is the cheap half of PlanRetrieve, used when the
// semantic optimizer has already proven the result empty. ranges maps
// each lower-cased range variable to its relation's name.
func (p *Planner) RetrieveSchema(st *RetrieveStmt, ranges map[string]string) (*relation.Schema, error) {
	sc := p.newScope(ranges)
	if err := sc.bindVars(st); err != nil {
		return nil, err
	}
	_, schema, err := resolveTargets(sc, st)
	return schema, err
}

// RetrievePlan is a prepared retrieve: variables resolved, targets and
// sort keys checked, access paths and join order chosen, and the whole
// lowered to one exec.Tree. Run may be called any number of times; each
// run re-scans the underlying relations through the plan. A RetrievePlan
// is only valid while the catalog snapshot it was planned against is —
// callers caching plans must key them by snapshot version.
type RetrievePlan struct {
	// Tree is the plan and the operator factory that executes it.
	Tree   exec.Tree
	schema *relation.Schema
}

// Schema returns the plan's output schema.
func (rp *RetrievePlan) Schema() *relation.Schema { return rp.schema }

// PlanRetrieve prepares a retrieve statement: resolves every variable,
// target and sort key through ranges (lower-cased range variable →
// relation name), chooses access paths cost-based, fixes the join
// order, and lowers the result to an exec.Tree.
func (p *Planner) PlanRetrieve(st *RetrieveStmt, ranges map[string]string) (*RetrievePlan, error) {
	sc := p.newScope(ranges)
	if err := sc.bindVars(st); err != nil {
		return nil, err
	}
	infos, schema, err := resolveTargets(sc, st)
	if err != nil {
		return nil, err
	}
	var keys []relation.SortKey
	for _, item := range st.SortBy {
		// Map the sort column to an output column: prefer a target on
		// the same variable+attribute.
		found := ""
		slot, ai, err := sc.colSlot(item.Col)
		if err != nil {
			return nil, err
		}
		for _, info := range infos {
			if info.slot == slot && info.attr == ai {
				found = info.name
				break
			}
		}
		if found == "" {
			return nil, fmt.Errorf("quel: sort by %s: column is not retrieved", item.Col)
		}
		keys = append(keys, relation.SortKey{Column: found, Desc: item.Desc})
	}
	sp, err := sc.plan(st.Where)
	if err != nil {
		return nil, err
	}
	tree, err := sc.lower(sp, infos, schema, keys, st.Unique)
	if err != nil {
		return nil, err
	}
	return &RetrievePlan{Tree: tree, schema: schema}, nil
}

// Describe renders the prepared retrieve as a typed plan tree — the
// exact node objects the streaming operators execute, so the plan shown
// cannot drift from the plan that runs.
func (rp *RetrievePlan) Describe() plan.Node {
	return rp.Tree.Node
}

// Run executes the prepared retrieve through the streaming pipeline.
func (rp *RetrievePlan) Run() (*Result, error) {
	return rp.RunContext(context.Background())
}

// RunContext executes the prepared retrieve through the streaming
// operator pipeline, honouring cancellation at batch boundaries. Each
// call instantiates a fresh operator tree, so concurrent runs of one
// prepared plan are safe.
func (rp *RetrievePlan) RunContext(ctx context.Context) (*Result, error) {
	out, err := rp.Tree.Run(ctx, "result")
	if err != nil {
		return nil, err
	}
	return &Result{Rel: out}, nil
}

// execRetrieve plans and runs a retrieve, storing the result in the
// catalog for "retrieve into".
func (s *Session) execRetrieve(ctx context.Context, st *RetrieveStmt) (*Result, error) {
	rp, err := s.p.PlanRetrieve(st, s.ranges)
	if err != nil {
		return nil, err
	}
	if st.Into == "" {
		return rp.RunContext(ctx)
	}
	out, err := rp.Tree.Run(ctx, st.Into)
	if err != nil {
		return nil, err
	}
	if s.p.cat.Has(st.Into) {
		return nil, fmt.Errorf("quel: retrieve into %s: relation already exists", st.Into)
	}
	s.p.cat.Put(out)
	return &Result{Rel: out}, nil
}
