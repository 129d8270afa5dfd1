// Package callgraph builds a static, intra-package call graph over Go
// syntax with only the standard library (the repository deliberately
// has no third-party module requirements; see internal/lint/analysis).
// It serves analyses whose rules are "everything reachable from a
// root" properties and therefore need edges, not just syntax.
//
// One Graph covers one type-checked package: a Node per function
// declaration and per function literal, and per-node out-edges for
// every call site and function reference in its body. Resolution is
// deliberately conservative — the graph never guesses an edge away:
//
//   - Direct calls (package-level functions, methods on concrete
//     receivers) resolve to a single Static edge.
//   - A method value or declared function used as a value produces a
//     Ref edge: the target runs at some later time, so a reachability
//     walk must treat it as called. A function literal used as a
//     value likewise Ref-edges to the literal's own node.
//   - A call through a local variable that is provably bound to
//     exactly one function literal (`v := func(){...}; v()`) resolves
//     statically to that literal; a variable that is reassigned,
//     aliased with &, or bound twice stays unresolved.
//   - A call through an interface method is a Dispatch edge carrying
//     the interface method object; Implementers enumerates every
//     in-package method that could answer it, and the caller decides
//     whether out-of-package implementers are possible.
//   - Anything else (a func-typed field, parameter, or reassigned
//     variable) is a Dynamic edge: the callee is statically unknown.
//
// Calls to functions outside the package resolve to edges whose Callee
// is known but whose Node is nil; the caller applies its own policy
// (an allowlist, a report) to those.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
)

// EdgeKind classifies how a call site's callee was resolved.
type EdgeKind uint8

const (
	// Static: the callee is a single statically known function — a
	// declared function/method or a resolved function literal.
	Static EdgeKind = iota
	// Dispatch: a call through an interface method; the concrete
	// callee depends on the dynamic type. Callee is the interface
	// method object.
	Dispatch
	// Dynamic: a call through a function value the builder could not
	// resolve (field, parameter, reassigned variable). Callee is nil.
	Dynamic
	// Ref: not a call — a method value, declared function, or function
	// literal used as a value. The target becomes reachable when the
	// value is invoked later, so walks follow Ref edges like calls.
	Ref
)

func (k EdgeKind) String() string {
	switch k {
	case Static:
		return "static"
	case Dispatch:
		return "dispatch"
	case Dynamic:
		return "dynamic"
	case Ref:
		return "ref"
	}
	return "unknown"
}

// Edge is one out-edge of a node: a call site or function reference.
type Edge struct {
	Kind EdgeKind
	// Site is the syntax that produced the edge: the *ast.CallExpr
	// for calls; the *ast.SelectorExpr, *ast.Ident, or *ast.FuncLit
	// for references.
	Site ast.Node
	// Callee is the resolved function object: the declared function
	// for Static/Ref edges to declarations, the interface method for
	// Dispatch edges, nil for Dynamic edges and edges to literals.
	Callee *types.Func
	// Node is the in-package target, when the target's body is in
	// this package (a declared function with a body, or a literal).
	// nil for external callees and Dynamic/Dispatch edges.
	Node *Node
}

// Node is one function body: a declaration or a literal.
type Node struct {
	// Fn is the declared function object; nil for literals.
	Fn *types.Func
	// Decl is the declaration; nil for literals.
	Decl *ast.FuncDecl
	// Lit is the literal; nil for declarations.
	Lit *ast.FuncLit
	// Out lists the node's call sites and references in source order.
	Out []Edge
}

// Body returns the node's function body.
func (n *Node) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// Pos returns the node's declaration position.
func (n *Node) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return n.Lit.Pos()
}

// Name returns a diagnostic name: "Recv.Method", "Func", or
// "func literal".
func (n *Node) Name() string {
	if n.Fn == nil {
		return "func literal"
	}
	name := n.Fn.Name()
	if sig, ok := n.Fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := types.Unalias(sig.Recv().Type())
		if p, ok := t.(*types.Pointer); ok {
			t = types.Unalias(p.Elem())
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + name
		}
	}
	return name
}

// Graph is the call graph of one package.
type Graph struct {
	pkg  *types.Package
	info *types.Info

	// Funcs maps every declared function/method with a body to its node.
	Funcs map[*types.Func]*Node
	// Lits maps every function literal to its node.
	Lits map[*ast.FuncLit]*Node
	// Ordered lists all nodes in source order (declarations before the
	// literals nested in them), for deterministic iteration.
	Ordered []*Node
}

// Build constructs the call graph of the package whose syntax is files,
// type-checked into pkg/info. Files for which skip returns true (test
// files, typically) contribute no nodes; skip may be nil.
func Build(pkg *types.Package, info *types.Info, files []*ast.File, skip func(*ast.File) bool) *Graph {
	g := &Graph{
		pkg:   pkg,
		info:  info,
		Funcs: make(map[*types.Func]*Node),
		Lits:  make(map[*ast.FuncLit]*Node),
	}
	// Nodes first, edges second, so forward references between
	// declarations resolve to nodes.
	var decls []*ast.FuncDecl
	for _, f := range files {
		if skip != nil && skip(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			g.Funcs[fn] = &Node{Fn: fn, Decl: fd}
			g.Ordered = append(g.Ordered, g.Funcs[fn])
			decls = append(decls, fd)
		}
	}
	for _, fd := range decls {
		fn, _ := info.Defs[fd.Name].(*types.Func)
		if node := g.Funcs[fn]; node != nil {
			// One binding scan per declaration: ast.Inspect descends
			// into nested literals, so the map is complete (and its
			// poisoning final) for every body in this declaration.
			g.buildBody(node, fd.Body, g.literalBindings(fd.Body))
		}
	}
	return g
}

// litNode returns (creating on first sight) the node for a literal,
// building its body with the enclosing declaration's bindings.
func (g *Graph) litNode(lit *ast.FuncLit, litBind map[*types.Var]*ast.FuncLit) *Node {
	if child, ok := g.Lits[lit]; ok {
		return child
	}
	child := &Node{Lit: lit}
	g.Lits[lit] = child
	g.Ordered = append(g.Ordered, child)
	g.buildBody(child, lit.Body, litBind)
	return child
}

// buildBody scans one function body, emitting edges onto node and
// creating child nodes for nested literals.
func (g *Graph) buildBody(node *Node, body *ast.BlockStmt, litBind map[*types.Var]*ast.FuncLit) {
	var walk func(n ast.Node, callFun ast.Expr)
	// callFun is the expression in call position (the Fun of the
	// enclosing CallExpr), so a literal there produces no Ref edge —
	// callEdges already emitted the Static edge.
	walk = func(n ast.Node, callFun ast.Expr) {
		switch n := n.(type) {
		case *ast.FuncLit:
			child := g.litNode(n, litBind)
			if n != callFun {
				node.Out = append(node.Out, Edge{Kind: Ref, Site: n, Node: child})
			}
			return

		case *ast.CallExpr:
			g.callEdges(node, n, litBind)
			switch fun := unparen(n.Fun).(type) {
			case *ast.Ident:
				// the callee head itself is not a value reference
			case *ast.SelectorExpr:
				walk(fun.X, nil)
			case *ast.FuncLit:
				walk(fun, fun)
			default:
				walk(n.Fun, nil)
			}
			for _, a := range n.Args {
				walk(a, nil)
			}
			return

		case *ast.SelectorExpr:
			g.refEdge(node, n)
			walk(n.X, nil)
			return

		case *ast.Ident:
			g.identRefEdge(node, n)
			return
		}
		if n != nil {
			walkChildren(n, func(c ast.Node) { walk(c, nil) })
		}
	}
	for _, stmt := range body.List {
		walk(stmt, nil)
	}
}

// walkChildren invokes f on each immediate child node of n.
func walkChildren(n ast.Node, f func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			f(c)
		}
		return false
	})
}

// literalBindings maps local vars bound exactly once to a function
// literal (and never reassigned or aliased) to that literal's syntax.
// The scan descends into nested literals, so the resulting map is
// valid for the declaration's whole body tree.
func (g *Graph) literalBindings(body *ast.BlockStmt) map[*types.Var]*ast.FuncLit {
	bind := make(map[*types.Var]*ast.FuncLit)
	dead := make(map[*types.Var]bool)
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		v, ok := g.info.ObjectOf(id).(*types.Var)
		if !ok {
			return
		}
		if lit, isLit := unparen(rhs).(*ast.FuncLit); isLit && rhs != nil {
			if _, bound := bind[v]; bound || dead[v] {
				dead[v] = true
				delete(bind, v)
				return
			}
			bind[v] = lit
			return
		}
		// Any other assignment poisons the variable.
		dead[v] = true
		delete(bind, v)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					record(n.Lhs[i], n.Rhs[i])
				}
			} else {
				for _, lhs := range n.Lhs {
					record(lhs, nil)
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i < len(n.Values) {
					record(name, n.Values[i])
				} else if len(n.Values) > 0 {
					record(name, nil)
				}
			}
		case *ast.UnaryExpr:
			// &v lets the variable be rewritten through the pointer.
			if n.Op == token.AND {
				if id, ok := unparen(n.X).(*ast.Ident); ok {
					if v, ok := g.info.ObjectOf(id).(*types.Var); ok {
						dead[v] = true
						delete(bind, v)
					}
				}
			}
		}
		return true
	})
	return bind
}

// callEdges emits the edge(s) for one call expression.
func (g *Graph) callEdges(node *Node, call *ast.CallExpr, litBind map[*types.Var]*ast.FuncLit) {
	fun := unparen(call.Fun)

	// Conversions are CallExprs syntactically; they call nothing.
	if tv, ok := g.info.Types[fun]; ok && tv.IsType() {
		return
	}

	switch fun := fun.(type) {
	case *ast.FuncLit:
		node.Out = append(node.Out, Edge{Kind: Static, Site: call, Node: g.litNode(fun, litBind)})
		return

	case *ast.Ident:
		switch obj := g.info.Uses[fun].(type) {
		case *types.Func:
			node.Out = append(node.Out, Edge{Kind: Static, Site: call, Callee: obj, Node: g.Funcs[obj]})
			return
		case *types.Builtin:
			return // builtins are the analyzer's business, not edges
		case *types.Var:
			if lit, ok := litBind[obj]; ok {
				node.Out = append(node.Out, Edge{Kind: Static, Site: call, Node: g.litNode(lit, litBind)})
				return
			}
		}
		node.Out = append(node.Out, Edge{Kind: Dynamic, Site: call})
		return

	case *ast.SelectorExpr:
		if sel, ok := g.info.Selections[fun]; ok {
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				// A func-typed field: dynamic.
				node.Out = append(node.Out, Edge{Kind: Dynamic, Site: call})
				return
			}
			if isInterfaceRecv(fn) {
				node.Out = append(node.Out, Edge{Kind: Dispatch, Site: call, Callee: fn})
				return
			}
			node.Out = append(node.Out, Edge{Kind: Static, Site: call, Callee: fn, Node: g.Funcs[fn]})
			return
		}
		// Package-qualified function (pkg.Fn), builtin, or var.
		switch obj := g.info.Uses[fun.Sel].(type) {
		case *types.Func:
			node.Out = append(node.Out, Edge{Kind: Static, Site: call, Callee: obj, Node: g.Funcs[obj]})
		case *types.Builtin:
			// qualified builtins (unsafe.Sizeof): no edge
		default:
			node.Out = append(node.Out, Edge{Kind: Dynamic, Site: call})
		}
		return
	}
	// Calling the result of an expression (f()() and friends).
	node.Out = append(node.Out, Edge{Kind: Dynamic, Site: call})
}

// refEdge emits a Ref edge for a selector used as a value: a method
// value (x.M with a method M — the receiver is bound now and the
// method runs later) or a package-qualified function (pkg.Fn handed to
// a sink; not a selection in go/types, so it needs its own resolution
// — without it, a cross-package function smuggled out as a value
// would silently vanish from every reachability walk).
func (g *Graph) refEdge(node *Node, sel *ast.SelectorExpr) {
	s, ok := g.info.Selections[sel]
	if !ok {
		if fn, isFn := g.info.Uses[sel.Sel].(*types.Func); isFn {
			node.Out = append(node.Out, Edge{Kind: Ref, Site: sel, Callee: fn, Node: g.Funcs[fn]})
		}
		return
	}
	if s.Kind() != types.MethodVal {
		return
	}
	fn, ok := s.Obj().(*types.Func)
	if !ok {
		return
	}
	if isInterfaceRecv(fn) {
		// A method value off an interface: dispatch deferred to run time.
		node.Out = append(node.Out, Edge{Kind: Dispatch, Site: sel, Callee: fn})
		return
	}
	node.Out = append(node.Out, Edge{Kind: Ref, Site: sel, Callee: fn, Node: g.Funcs[fn]})
}

// identRefEdge emits a Ref edge for a bare identifier naming a declared
// function used as a value (handed to a sink, stored, returned).
func (g *Graph) identRefEdge(node *Node, id *ast.Ident) {
	fn, ok := g.info.Uses[id].(*types.Func)
	if !ok {
		return
	}
	node.Out = append(node.Out, Edge{Kind: Ref, Site: id, Callee: fn, Node: g.Funcs[fn]})
}

// isInterfaceRecv reports whether fn is declared on an interface.
func isInterfaceRecv(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := types.Unalias(sig.Recv().Type())
	if _, ok := t.(*types.Interface); ok {
		return true
	}
	if n, ok := t.(*types.Named); ok {
		_, isIface := n.Underlying().(*types.Interface)
		return isIface
	}
	return false
}

// recvInterface unwraps an interface method's receiver to its
// *types.Interface, if fn is declared on one.
func recvInterface(fn *types.Func) *types.Interface {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := types.Unalias(sig.Recv().Type())
	if it, ok := t.(*types.Interface); ok {
		return it
	}
	if n, ok := t.(*types.Named); ok {
		if it, ok := n.Underlying().(*types.Interface); ok {
			return it
		}
	}
	return nil
}

// Implementers returns the in-package declared methods that could
// answer a Dispatch edge's interface method: every method with the
// same name on a type that implements the method's interface, in
// source order. Out-of-package implementers are the caller's problem —
// this graph only sees one package.
func (g *Graph) Implementers(iface *types.Func) []*Node {
	it := recvInterface(iface)
	if it == nil {
		return nil
	}
	var out []*Node
	for _, node := range g.Ordered {
		if node.Fn == nil || node.Fn.Name() != iface.Name() {
			continue
		}
		msig, ok := node.Fn.Type().(*types.Signature)
		if !ok || msig.Recv() == nil {
			continue
		}
		rt := msig.Recv().Type()
		if types.Implements(rt, it) {
			out = append(out, node)
			continue
		}
		// A value receiver still answers calls through a pointer.
		if _, isPtr := types.Unalias(rt).(*types.Pointer); !isPtr {
			if types.Implements(types.NewPointer(rt), it) {
				out = append(out, node)
			}
		}
	}
	return out
}

// unparen strips redundant parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
