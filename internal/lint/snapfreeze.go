package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// snapfreezePass enforces publish-then-freeze: once a snapshot, a
// cached response, or a prepared plan is published (installed in the
// System, inserted into a cache, handed to a concurrent reader), no
// field of it — and nothing reachable from it — may be mutated. It
// generalizes rowalias's freshness analysis interprocedurally: a value
// is *fresh* while it is still provably private to the constructing
// function (composite literals, make/new, Clone results, and the
// results of functions summarized as returning only fresh values);
// everything else of a frozen type is assumed published.
//
// Frozen types are the repo's published-immutable surfaces: every
// named type of internal/plan (plan trees are replayed verbatim by
// EXPLAIN and execution), query.Prepared and query.aggPlan (the
// prepared-statement cache), quel.RetrievePlan/scanPlan/accessPath
// (the compiled access paths inside cached plans), and core.Response /
// core.snapshot (the cached responses and the snapshot chain).
// Internally-locked caches hanging off a snapshot (stmtCache and its
// stmt entries, IndexCache) are the sanctioned mutable leaves and are
// deliberately not frozen — lockguard owns their contracts.
//
// The pass reports:
//
//   - a write through a non-fresh frozen value (field assignment,
//     element assignment, append-into-field) whose access chain is not
//     rooted at a parameter — parameter-rooted writes are recorded as
//     a mutation summary instead, and
//   - a call passing a non-fresh frozen value to a function whose
//     summary says it mutates that parameter (or receiver).
//
// That split keeps constructor helpers legal: a helper may mutate the
// plan it is passed, as long as every caller hands it a fresh one.
var snapfreezePass = &Pass{
	Name: "snapfreeze",
	Doc:  "values reachable from a published snapshot, cached response, or cached plan must not be mutated",
	Run:  runSnapfreeze,
}

// frozenNamedTypes lists the frozen types outside internal/plan, keyed
// by package-path suffix.
var frozenNamedTypes = map[string]map[string]bool{
	"internal/query": {"Prepared": true, "aggPlan": true},
	"internal/quel":  {"RetrievePlan": true, "scanPlan": true, "accessPath": true},
	"internal/core":  {"Response": true, "snapshot": true},
}

// frozenType reports whether t (after pointer deref) is a frozen type.
func frozenType(t types.Type) bool {
	named := derefNamed(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	if pathHasSuffix(path, "internal/plan") {
		return true
	}
	for suffix, names := range frozenNamedTypes {
		if pathHasSuffix(path, suffix) && names[obj.Name()] {
			return true
		}
	}
	return false
}

func runSnapfreeze(prog *Program) []Diagnostic {
	g := prog.CallGraph()
	freshRet := freshReturnSummaries(g)
	mutates := mutationSummaries(g, freshRet)

	var diags []Diagnostic
	for _, n := range g.order {
		diags = append(diags, checkSnapfreezeFunc(g, n, freshRet, mutates)...)
	}
	return diags
}

// freshReturnSummaries computes which functions return only fresh
// values in frozen result positions. It starts optimistic and demotes
// until a fixpoint, so constructor chains (newSnapshot calling helpers
// that call newSnapshot) converge.
func freshReturnSummaries(g *CallGraph) map[*types.Func]bool {
	freshRet := map[*types.Func]bool{}
	frozenResults := func(fn *types.Func) []int {
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			return nil
		}
		var out []int
		for i := 0; i < sig.Results().Len(); i++ {
			if frozenType(sig.Results().At(i).Type()) {
				out = append(out, i)
			}
		}
		return out
	}
	for _, n := range g.order {
		freshRet[n.Fn] = true
	}
	g.fixpoint(func(n *FuncNode) bool {
		if !freshRet[n.Fn] {
			return false
		}
		idxs := frozenResults(n.Fn)
		if len(idxs) == 0 {
			return false
		}
		fresh := snapFreshLocals(n.Pkg, n.Decl, freshRet)
		demote := false
		inspectSameFunc(n.Decl.Body, func(nd ast.Node) {
			ret, ok := nd.(*ast.ReturnStmt)
			if !ok || demote {
				return
			}
			if len(ret.Results) == 0 {
				// Bare return with named frozen results: provenance
				// unknown, demote.
				demote = true
				return
			}
			if len(ret.Results) != len(idxs) && len(ret.Results) <= idxs[len(idxs)-1] {
				// A single call expression fanning out to multiple
				// results: fresh only if the callee is.
				demote = !snapFresh(n.Pkg, nil, freshRet, ret.Results[0])
				return
			}
			for _, i := range idxs {
				if i < len(ret.Results) && !snapFresh(n.Pkg, fresh, freshRet, ret.Results[i]) {
					demote = true
					return
				}
			}
		})
		if demote {
			freshRet[n.Fn] = false
			return true
		}
		return false
	})
	return freshRet
}

// paramIndex locates obj among a function's receiver (index 0) and
// parameters (index 1..n); returns -1 when obj is neither.
func paramIndex(pkg *Package, fd *ast.FuncDecl, obj types.Object) int {
	idx := 0
	if fd.Recv != nil {
		for _, f := range fd.Recv.List {
			for _, name := range f.Names {
				if pkg.objectOf(name) == obj {
					return 0
				}
			}
		}
	}
	idx = 1
	if fd.Type.Params != nil {
		for _, f := range fd.Type.Params.List {
			for _, name := range f.Names {
				if pkg.objectOf(name) == obj {
					return idx
				}
				idx++
			}
			if len(f.Names) == 0 {
				idx++
			}
		}
	}
	return -1
}

// mutationSummaries computes, per function, the set of parameter slots
// (0 = receiver, 1.. = parameters) the function mutates — directly
// through a field/element write rooted at that parameter, or by
// passing the parameter to a callee that mutates it.
func mutationSummaries(g *CallGraph, freshRet map[*types.Func]bool) map[*types.Func]map[int]bool {
	mutates := map[*types.Func]map[int]bool{}
	mark := func(fn *types.Func, slot int) bool {
		if mutates[fn] == nil {
			mutates[fn] = map[int]bool{}
		}
		if mutates[fn][slot] {
			return false
		}
		mutates[fn][slot] = true
		return true
	}
	g.fixpoint(func(n *FuncNode) bool {
		changed := false
		slotOf := func(e ast.Expr) int {
			id, ok := rootIdent(e)
			if !ok {
				return -1
			}
			obj := n.Pkg.objectOf(id)
			if obj == nil {
				return -1
			}
			return paramIndex(n.Pkg, n.Decl, obj)
		}
		inspectSameFuncWrites(n.Pkg, n.Decl.Body, func(base ast.Expr) {
			if _, ok := frozenWriteBase(n.Pkg, base); !ok {
				return
			}
			if slot := slotOf(base); slot >= 0 && mark(n.Fn, slot) {
				changed = true
			}
		})
		for _, site := range n.Calls {
			f := site.Callee
			if f == nil || mutates[f] == nil {
				continue
			}
			for calleeSlot := range mutates[f] {
				var arg ast.Expr
				if calleeSlot == 0 {
					if sel, ok := unparen(site.Call.Fun).(*ast.SelectorExpr); ok {
						arg = sel.X
					}
				} else if calleeSlot-1 < len(site.Call.Args) {
					arg = site.Call.Args[calleeSlot-1]
				}
				if arg == nil {
					continue
				}
				if slot := slotOf(arg); slot >= 0 && mark(n.Fn, slot) {
					changed = true
				}
			}
		}
		return changed
	})
	return mutates
}

// frozenWriteBase attributes a write-through expression to the nearest
// enclosing *named* type on its access chain and reports that type when
// it is frozen. Writing `p.Cols[i]` mutates the plan p (the []string is
// anonymous memory of the plan); writing `sn.stmts.m[k]` mutates the
// stmtCache, not the snapshot — the chain hits a named, non-frozen type
// first, and those (stmtCache, stmt, IndexCache, Catalog, the query
// Processor) are the sanctioned internally-locked mutable leaves
// whose contracts lockguard owns.
func frozenWriteBase(pkg *Package, e ast.Expr) (*types.Named, bool) {
	for {
		cur := unparen(e)
		if t := pkg.Info.TypeOf(cur); t != nil {
			if frozenType(t) {
				return derefNamed(t), true
			}
			if derefNamed(t) != nil {
				return nil, false
			}
		}
		switch v := cur.(type) {
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.UnaryExpr:
			if v.Op != token.AND {
				return nil, false
			}
			e = v.X
		default:
			return nil, false
		}
	}
}

// rootIdent walks an access chain (x.f[i].g, &x.f, *p) down to its
// root identifier.
func rootIdent(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch v := unparen(e).(type) {
		case *ast.Ident:
			return v, true
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.UnaryExpr:
			if v.Op != token.AND {
				return nil, false
			}
			e = v.X
		default:
			return nil, false
		}
	}
}

// inspectSameFunc walks body without descending into nested function
// literals — statements of a closure belong to the closure's analysis,
// not its host's.
func inspectSameFunc(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(nd ast.Node) bool {
		if _, ok := nd.(*ast.FuncLit); ok {
			return false
		}
		if nd != nil {
			visit(nd)
		}
		return true
	})
}

// inspectSameFuncWrites reports every write-through base expression of
// the body: for `x.f = v`, `x.f[i] = v`, `*p = v`, `x.f++`, the
// expression being written through (x, x.f, p, x.f).
func inspectSameFuncWrites(pkg *Package, body *ast.BlockStmt, visit func(base ast.Expr)) {
	emit := func(lhs ast.Expr) {
		switch v := unparen(lhs).(type) {
		case *ast.SelectorExpr:
			visit(v.X)
		case *ast.IndexExpr:
			visit(v.X)
		case *ast.StarExpr:
			visit(v.X)
		}
	}
	inspectSameFunc(body, func(nd ast.Node) {
		switch st := nd.(type) {
		case *ast.AssignStmt:
			if st.Tok == token.DEFINE {
				return
			}
			for _, lhs := range st.Lhs {
				emit(lhs)
			}
		case *ast.IncDecStmt:
			emit(st.X)
		}
	})
}

// snapFreshLocals is freshLocals generalized with interprocedural
// summaries: locals assigned only from fresh expressions, where calls
// to returns-fresh functions count as fresh.
func snapFreshLocals(pkg *Package, fd *ast.FuncDecl, freshRet map[*types.Func]bool) freshSet {
	assigns := map[types.Object][]ast.Expr{}
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := pkg.objectOf(id)
		if obj == nil {
			return
		}
		assigns[obj] = append(assigns[obj], rhs)
	}
	inspectSameFunc(fd.Body, func(n ast.Node) {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) == len(st.Rhs) {
				for i := range st.Lhs {
					record(st.Lhs[i], st.Rhs[i])
				}
			} else if len(st.Rhs) == 1 {
				// Multi-value call: every target is fresh iff the call
				// is (the error half of a comma-err never roots a
				// frozen write, so the overapproximation is harmless).
				for _, lhs := range st.Lhs {
					record(lhs, st.Rhs[0])
				}
			} else {
				for _, lhs := range st.Lhs {
					record(lhs, badExpr)
				}
			}
		case *ast.ValueSpec:
			for i, name := range st.Names {
				if len(st.Values) == 0 {
					record(name, nil)
				} else if i < len(st.Values) {
					record(name, st.Values[i])
				} else if len(st.Values) == 1 {
					record(name, st.Values[0])
				} else {
					record(name, badExpr)
				}
			}
		case *ast.RangeStmt:
			if st.Key != nil {
				record(st.Key, badExpr)
			}
			if st.Value != nil {
				record(st.Value, badExpr)
			}
		}
	})

	fresh := freshSet{}
	for obj := range assigns {
		fresh[obj] = true
	}
	for changed := true; changed; {
		changed = false
		for obj, rhss := range assigns {
			if !fresh[obj] {
				continue
			}
			for _, rhs := range rhss {
				if rhs == nil {
					continue
				}
				if !snapFresh(pkg, fresh, freshRet, rhs) {
					fresh[obj] = false
					changed = true
					break
				}
			}
		}
	}
	return fresh
}

// snapFresh reports whether an expression evaluates to freshly
// allocated, still-private memory. Field selection, indexing, and
// address-taking preserve freshness: a field of a fresh struct is as
// private as the struct.
func snapFresh(pkg *Package, fresh freshSet, freshRet map[*types.Func]bool, e ast.Expr) bool {
	switch v := unparen(e).(type) {
	case *ast.Ident:
		if v.Name == "nil" {
			return true
		}
		obj := pkg.objectOf(v)
		return obj != nil && fresh[obj]
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		return v.Op == token.AND && snapFresh(pkg, fresh, freshRet, v.X)
	case *ast.StarExpr:
		return snapFresh(pkg, fresh, freshRet, v.X)
	case *ast.SelectorExpr:
		// Package-qualified names are globals, never fresh.
		if id, ok := unparen(v.X).(*ast.Ident); ok {
			if _, isPkg := pkg.objectOf(id).(*types.PkgName); isPkg {
				return false
			}
		}
		return snapFresh(pkg, fresh, freshRet, v.X)
	case *ast.IndexExpr:
		return snapFresh(pkg, fresh, freshRet, v.X)
	case *ast.SliceExpr:
		return snapFresh(pkg, fresh, freshRet, v.X)
	case *ast.CallExpr:
		if pkg.isBuiltin(v, "make") || pkg.isBuiltin(v, "new") {
			return true
		}
		if pkg.isBuiltin(v, "append") && len(v.Args) > 0 {
			return snapFresh(pkg, fresh, freshRet, v.Args[0])
		}
		if tv, ok := pkg.Info.Types[v.Fun]; ok && tv.IsType() && len(v.Args) == 1 {
			return snapFresh(pkg, fresh, freshRet, v.Args[0])
		}
		f := pkg.calleeFunc(v)
		if f == nil {
			return false
		}
		switch f.Name() {
		case "Clone", "ShallowClone", "Copy":
			return true
		}
		return freshRet[f]
	}
	return false
}

// checkSnapfreezeFunc reports the mutation findings of one function.
func checkSnapfreezeFunc(g *CallGraph, n *FuncNode, freshRet map[*types.Func]bool, mutates map[*types.Func]map[int]bool) []Diagnostic {
	pkg := n.Pkg
	fresh := snapFreshLocals(pkg, n.Decl, freshRet)
	isParam := func(e ast.Expr) bool {
		id, ok := rootIdent(e)
		if !ok {
			return false
		}
		obj := pkg.objectOf(id)
		return obj != nil && paramIndex(pkg, n.Decl, obj) >= 0
	}

	var diags []Diagnostic
	inspectSameFuncWrites(pkg, n.Decl.Body, func(base ast.Expr) {
		named, ok := frozenWriteBase(pkg, base)
		if !ok {
			return
		}
		if snapFresh(pkg, fresh, freshRet, base) || isParam(base) {
			return
		}
		diags = append(diags, pkg.diag("snapfreeze", base,
			"mutating a published %s value after publish; build a fresh value (or Clone) and swap it in instead", named.Obj().Name()))
	})
	for _, site := range n.Calls {
		f := site.Callee
		if f == nil || mutates[f] == nil {
			continue
		}
		slots := make([]int, 0, len(mutates[f]))
		for s := range mutates[f] {
			slots = append(slots, s)
		}
		sort.Ints(slots)
		for _, slot := range slots {
			var arg ast.Expr
			if slot == 0 {
				if sel, ok := unparen(site.Call.Fun).(*ast.SelectorExpr); ok {
					arg = sel.X
				}
			} else if slot-1 < len(site.Call.Args) {
				arg = site.Call.Args[slot-1]
			}
			if arg == nil {
				continue
			}
			if !frozenType(pkg.Info.TypeOf(arg)) {
				continue
			}
			// A parameter handed onward becomes this function's own
			// mutation summary (already propagated above), checked at
			// its call sites — that keeps constructor helpers legal.
			if snapFresh(pkg, fresh, freshRet, arg) || isParam(arg) {
				continue
			}
			named := derefNamed(pkg.Info.TypeOf(arg))
			d := pkg.diag("snapfreeze", site.Call,
				"%s mutates its argument, but this %s value is published; pass a fresh value (or Clone) instead", f.Name(), named.Obj().Name())
			if cn := g.Node(f); cn != nil {
				d.Related = append(d.Related, cn.Pkg.rel(cn.Decl.Name, "%s writes through this parameter", f.Name()))
			}
			diags = append(diags, d)
		}
	}
	return diags
}
