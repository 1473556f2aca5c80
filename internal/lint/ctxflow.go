package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ctxflowPass enforces context propagation on request paths: every
// blocking operation reachable from a server or core request
// entrypoint must receive and honor the request's context.Context.
//
// Entrypoints (roots) are: functions in internal/server that take a
// *net/http.Request — directly or in a nested handler closure — and
// exported internal/core functions that take a context.Context. From
// those roots the pass walks the call graph and checks three rules:
//
//	R1  a reachable function calls context.Background() or
//	    context.TODO(): the request's deadline and cancellation are
//	    silently dropped.
//	R2  a function holding a request-derived context passes some other
//	    context to a callee.
//	R3  a function holding a request-derived context makes a
//	    (transitively) blocking call that takes no context, while the
//	    function itself never consults its context — no Err/Done, and
//	    no derived context forwarded anywhere. The work outlives the
//	    request's deadline with no way to stop it.
//
// "Derived" is a local flow analysis: context parameters, request
// parameters, r.Context(), and the context.With* chains built from
// them. "Blocking" is a transitive summary over the call graph, seeded
// with the operations this repo actually blocks on: the fault.FS /
// fault.File disk seam, time.Sleep, and rule induction
// (induct.InduceAll / InducePairsContext).
var ctxflowPass = &Pass{
	Name: "ctxflow",
	Doc:  "request entrypoints must thread their context to every blocking operation they reach",
	Run:  runCtxflow,
}

const (
	serverPkgSuffix = "internal/server"
	corePkgSuffix   = "internal/core"
)

func runCtxflow(prog *Program) []Diagnostic {
	g := prog.CallGraph()
	blocks := blockingSummaries(g)

	var roots []*types.Func
	for _, n := range g.order {
		if ctxflowRoot(n) {
			roots = append(roots, n.Fn)
		}
	}
	reach := g.Reachable(roots)

	var diags []Diagnostic
	for _, n := range g.order {
		if !reach.Has(n.Fn) {
			continue
		}
		diags = append(diags, checkCtxflowFunc(g, n, blocks, reach)...)
	}
	return diags
}

// ctxflowRoot reports whether a function is a request entrypoint.
func ctxflowRoot(n *FuncNode) bool {
	inServer := pathHasSuffix(n.Pkg.Path, serverPkgSuffix)
	inCore := pathHasSuffix(n.Pkg.Path, corePkgSuffix)
	if !inServer && !inCore {
		return false
	}
	if inServer && len(ctxflowSources(n)) > 0 {
		return true
	}
	// Core: the exported context-taking API is the request surface.
	if !ast.IsExported(n.Decl.Name.Name) {
		return false
	}
	for _, f := range n.Decl.Type.Params.List {
		if isContextType(n.Pkg.Info.TypeOf(f.Type)) {
			return true
		}
	}
	return false
}

// ctxflowSources collects the request-context seeds of a function: its
// own context/request parameters plus those of any nested closure (the
// middleware pattern declares the handler as a literal inside a
// wrapper).
func ctxflowSources(n *FuncNode) map[types.Object]bool {
	seeds := map[types.Object]bool{}
	addFields := func(params *ast.FieldList) {
		if params == nil {
			return
		}
		for _, f := range params.List {
			t := n.Pkg.Info.TypeOf(f.Type)
			if !isContextType(t) && !isHTTPRequestPtr(t) {
				continue
			}
			for _, name := range f.Names {
				if obj := n.Pkg.objectOf(name); obj != nil {
					seeds[obj] = true
				}
			}
		}
	}
	addFields(n.Decl.Type.Params)
	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		if lit, ok := nd.(*ast.FuncLit); ok {
			addFields(lit.Type.Params)
		}
		return true
	})
	return seeds
}

func isContextType(t types.Type) bool {
	name, ok := namedDeclaredIn(t, "context")
	return ok && name == "Context"
}

func isHTTPRequestPtr(t types.Type) bool {
	if _, isPtr := t.(*types.Pointer); !isPtr {
		return false
	}
	name, ok := namedDeclaredIn(t, "net/http")
	return ok && name == "Request"
}

// blockingSummaries computes, for every declared function, whether it
// transitively reaches a blocking base operation.
func blockingSummaries(g *CallGraph) map[*types.Func]bool {
	blocks := map[*types.Func]bool{}
	g.fixpoint(func(n *FuncNode) bool {
		if blocks[n.Fn] {
			return false
		}
		for _, site := range n.Calls {
			if blockingCall(n.Pkg, site) || (site.Callee != nil && blocks[site.Callee]) {
				blocks[n.Fn] = true
				return true
			}
		}
		return false
	})
	return blocks
}

// blockingCall reports whether a call site is a blocking base
// operation: a fault-seam call (classified by receiver type, which
// also catches the Write/ReadAt methods embedded from io) or one of
// the named blocking functions.
func blockingCall(pkg *Package, site CallSite) bool {
	if _, _, ok := faultSeamMethod(pkg, site.Call); ok {
		return true
	}
	return blockingBase(site.Callee)
}

// blockingBase classifies the operations this repo blocks on: the
// fault seam's disk I/O (FS and File interface methods), time.Sleep,
// and rule induction.
func blockingBase(f *types.Func) bool {
	if f == nil || f.Pkg() == nil {
		return false
	}
	path := f.Pkg().Path()
	switch {
	case path == "time" && f.Name() == "Sleep":
		return true
	case pathHasSuffix(path, "internal/fault"):
		sig, ok := f.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			return false
		}
		name, ok := namedDeclaredIn(sig.Recv().Type(), "internal/fault")
		return ok && (name == "FS" || name == "File")
	case pathHasSuffix(path, "internal/induct"):
		switch f.Name() {
		case "InduceAll", "InduceAllContext", "InducePairsContext":
			return true
		}
	}
	return false
}

// ctxScope is the per-function derived-context analysis.
type ctxScope struct {
	pkg     *Package
	derived map[types.Object]bool
}

// checkCtxflowFunc applies R1–R3 to one reachable function.
func checkCtxflowFunc(g *CallGraph, n *FuncNode, blocks map[*types.Func]bool, reach *Reachable) []Diagnostic {
	pkg := n.Pkg
	sc := &ctxScope{pkg: pkg, derived: ctxflowSources(n)}
	sc.propagate(n.Decl.Body)
	consults := len(sc.derived) > 0 && sc.consults(n.Decl.Body)

	rootRel := func() []Related {
		if rt := reach.Root(n.Fn); rt != nil && rt != n.Fn {
			if rn := g.Node(rt); rn != nil {
				return []Related{rn.Pkg.rel(rn.Decl.Name, "reachable from request entrypoint %s", rt.Name())}
			}
		}
		return nil
	}

	var diags []Diagnostic
	for _, site := range n.Calls {
		call, f := site.Call, site.Callee

		// R1: a detached context created on a request path.
		if isContextConstructor(f) {
			d := pkg.diag("ctxflow", call,
				"context.%s() on a request path discards the request's deadline and cancellation; derive from the request context instead", f.Name())
			d.Related = rootRel()
			diags = append(diags, d)
			continue
		}

		if len(sc.derived) == 0 {
			continue
		}

		// R2: forwarding a context that is not the request's.
		hasCtxArg := false
		for _, arg := range call.Args {
			if !isContextType(pkg.Info.TypeOf(arg)) {
				continue
			}
			hasCtxArg = true
			if sc.exprDerived(arg) {
				continue
			}
			// A direct Background()/TODO() argument is already R1.
			if c, ok := unparen(arg).(*ast.CallExpr); ok && isContextConstructor(pkg.calleeFunc(c)) {
				continue
			}
			d := pkg.diag("ctxflow", arg,
				"a context not derived from the request's is passed on a request path; thread the request context through instead")
			d.Related = rootRel()
			diags = append(diags, d)
		}

		// R3: a context-less blocking call while this function never
		// consults or forwards the context it holds.
		if hasCtxArg || consults || f == nil {
			continue
		}
		if !blockingCall(pkg, site) && !blocks[f] {
			continue
		}
		d := pkg.diag("ctxflow", call,
			"%s blocks but takes no context, and %s never consults its request context; the work cannot be cancelled", f.Name(), n.Fn.Name())
		if cn := g.Node(f); cn != nil {
			d.Related = append(d.Related, cn.Pkg.rel(cn.Decl.Name, "%s reaches a blocking operation and has no context parameter", f.Name()))
		}
		d.Related = append(d.Related, rootRel()...)
		diags = append(diags, d)
	}
	return diags
}

func isContextConstructor(f *types.Func) bool {
	return f != nil && f.Pkg() != nil && f.Pkg().Path() == "context" &&
		(f.Name() == "Background" || f.Name() == "TODO")
}

// propagate grows the derived set across assignments until a fixpoint:
// ctx := r.Context(); ctx2, cancel := context.WithTimeout(ctx, d); and
// so on.
func (sc *ctxScope) propagate(body *ast.BlockStmt) {
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(nd ast.Node) bool {
			st, ok := nd.(*ast.AssignStmt)
			if !ok {
				return true
			}
			mark := func(lhs ast.Expr) {
				id, ok := unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					return
				}
				obj := sc.pkg.objectOf(id)
				if obj == nil || sc.derived[obj] {
					return
				}
				t := obj.Type()
				if !isContextType(t) && !isHTTPRequestPtr(t) {
					return
				}
				sc.derived[obj] = true
				changed = true
			}
			if len(st.Lhs) == len(st.Rhs) {
				for i := range st.Lhs {
					if sc.exprDerived(st.Rhs[i]) {
						mark(st.Lhs[i])
					}
				}
			} else if len(st.Rhs) == 1 && sc.exprDerived(st.Rhs[0]) {
				// ctx, cancel := context.WithTimeout(...): the context
				// result carries the derivation.
				for _, lhs := range st.Lhs {
					mark(lhs)
				}
			}
			return true
		})
	}
}

// exprDerived reports whether an expression evaluates to a value
// derived from the request context.
func (sc *ctxScope) exprDerived(e ast.Expr) bool {
	switch v := unparen(e).(type) {
	case *ast.Ident:
		obj := sc.pkg.objectOf(v)
		return obj != nil && sc.derived[obj]
	case *ast.CallExpr:
		f := sc.pkg.calleeFunc(v)
		if f == nil {
			return false
		}
		recv := func() ast.Expr {
			if sel, ok := unparen(v.Fun).(*ast.SelectorExpr); ok {
				return sel.X
			}
			return nil
		}
		switch {
		// r.Context() on a derived request.
		case f.Name() == "Context" && f.Pkg() != nil && f.Pkg().Path() == "net/http":
			r := recv()
			return r != nil && sc.exprDerived(r)
		// context.WithCancel/WithTimeout/WithDeadline/WithValue(parent, ...).
		case f.Pkg() != nil && f.Pkg().Path() == "context" && strings.HasPrefix(f.Name(), "With"):
			return len(v.Args) > 0 && sc.exprDerived(v.Args[0])
		// r.WithContext(ctx): derived if either half is.
		case f.Name() == "WithContext" && f.Pkg() != nil && f.Pkg().Path() == "net/http":
			if r := recv(); r != nil && sc.exprDerived(r) {
				return true
			}
			return len(v.Args) > 0 && sc.exprDerived(v.Args[0])
		}
	}
	return false
}

// consults reports whether the function honors its derived context: it
// checks Err/Done/Deadline on a derived context, or forwards a derived
// *context* to a callee (r.Context() as an argument, r.WithContext).
// Forwarding the bare request does not count — handing r to a body
// decoder does nothing to cancel a separate blocking call.
func (sc *ctxScope) consults(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(nd ast.Node) bool {
		if found {
			return false
		}
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "Err", "Done", "Deadline":
				if isContextType(sc.pkg.Info.TypeOf(sel.X)) && sc.exprDerived(sel.X) {
					found = true
					return false
				}
			case "WithContext":
				if len(call.Args) > 0 && sc.exprDerived(call.Args[0]) {
					found = true
					return false
				}
			}
		}
		for _, arg := range call.Args {
			if isContextType(sc.pkg.Info.TypeOf(arg)) && sc.exprDerived(arg) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
