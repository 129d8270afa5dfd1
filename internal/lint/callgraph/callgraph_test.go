package callgraph

// The graph's resolution contracts, pinned directly: a reachability
// walk over the graph is only sound if "the builder never guesses an
// edge away", so each resolution rule — and each deliberate
// conservatism — gets a test.

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// build parses and type-checks one in-memory file as package
// "example.com/internal/demo" and returns its call graph.
func build(t *testing.T, src string) (*Graph, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "demo.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: importer.Default()}
	pkg, err := conf.Check("example.com/internal/demo", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return Build(pkg, info, []*ast.File{f}, nil), fset
}

// node finds a declared node by its diagnostic Name ("Recv.Method" or
// "Func").
func node(t *testing.T, g *Graph, name string) *Node {
	t.Helper()
	for _, n := range g.Ordered {
		if n.Fn != nil && n.Name() == name {
			return n
		}
	}
	t.Fatalf("no node named %q; have %v", name, names(g.Ordered))
	return nil
}

func names(nodes []*Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.Name()
	}
	return out
}

// edges summarizes a node's out-edges as "kind:callee" strings, with
// literal targets shown as "kind:lit".
func edges(n *Node) []string {
	out := make([]string, 0, len(n.Out))
	for _, e := range n.Out {
		target := "?"
		switch {
		case e.Callee != nil:
			target = e.Callee.Name()
		case e.Node != nil && e.Node.Lit != nil:
			target = "lit"
		}
		out = append(out, e.Kind.String()+":"+target)
	}
	return out
}

func wantEdges(t *testing.T, n *Node, want ...string) {
	t.Helper()
	got := edges(n)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("%s edges = %v, want %v", n.Name(), got, want)
	}
}

func TestStaticCallsAndMethods(t *testing.T) {
	g, _ := build(t, `package demo

type Dev struct{ n int }

func (d *Dev) Step() { d.tick() }
func (d *Dev) tick() { d.n++ }

func Run(d *Dev) {
	d.Step()
	helper()
}
func helper() {}
`)
	step := node(t, g, "Dev.Step")
	wantEdges(t, step, "static:tick")
	if step.Out[0].Node != node(t, g, "Dev.tick") {
		t.Errorf("Step->tick edge should carry the in-package node")
	}
	wantEdges(t, node(t, g, "Run"), "static:Step", "static:helper")
}

func TestMutualRecursion(t *testing.T) {
	// Forward references must resolve: even() calls odd() declared
	// later, and the cycle must not trap Build or a reachability walk.
	g, _ := build(t, `package demo

func even(n int) bool {
	if n == 0 {
		return true
	}
	return odd(n - 1)
}

func odd(n int) bool {
	if n == 0 {
		return false
	}
	return even(n - 1)
}
`)
	even, odd := node(t, g, "even"), node(t, g, "odd")
	wantEdges(t, even, "static:odd")
	wantEdges(t, odd, "static:even")
	if even.Out[0].Node != odd || odd.Out[0].Node != even {
		t.Errorf("mutual recursion edges must link both nodes")
	}
	// A walk over the cycle terminates with a visited set.
	seen := map[*Node]bool{}
	var visit func(*Node)
	var steps int
	visit = func(n *Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		steps++
		if steps > 10 {
			t.Fatalf("walk did not terminate")
		}
		for _, e := range n.Out {
			if e.Node != nil {
				visit(e.Node)
			}
		}
	}
	visit(even)
	if !seen[even] || !seen[odd] {
		t.Errorf("walk should reach both functions")
	}
}

func TestMethodValueAsHandler(t *testing.T) {
	// A method value passed to a sink is a Ref edge: the receiver is
	// bound now, the body runs later, so reachability must include it.
	g, _ := build(t, `package demo

type op struct{ n int }

func (o *op) OnEvent(arg uint64) { o.n++ }

func register(fn func(uint64)) {}

func Setup(o *op) {
	register(o.OnEvent)
}
`)
	setup := node(t, g, "Setup")
	wantEdges(t, setup, "static:register", "ref:OnEvent")
	var ref *Edge
	for i := range setup.Out {
		if setup.Out[i].Kind == Ref {
			ref = &setup.Out[i]
		}
	}
	if ref == nil || ref.Node != node(t, g, "op.OnEvent") {
		t.Fatalf("method value must Ref-edge to op.OnEvent's node")
	}
}

func TestBareFuncIdentAsValue(t *testing.T) {
	g, _ := build(t, `package demo

func worker() {}

func sink(fn func()) {}

func Setup() {
	sink(worker)
}
`)
	wantEdges(t, node(t, g, "Setup"), "static:sink", "ref:worker")
}

func TestFuncLitAssignedThenInvoked(t *testing.T) {
	// v := func(){...}; v() resolves statically to the literal.
	g, _ := build(t, `package demo

func target() {}

func Run() {
	v := func() { target() }
	v()
}
`)
	run := node(t, g, "Run")
	wantEdges(t, run, "ref:lit", "static:lit")
	if run.Out[0].Node != run.Out[1].Node {
		t.Errorf("binding and call must resolve to the same literal node")
	}
	lit := run.Out[1].Node
	wantEdges(t, lit, "static:target")
}

func TestReassignedFuncVarIsDynamic(t *testing.T) {
	// Two bindings poison the variable: calls through it stay Dynamic.
	g, _ := build(t, `package demo

func Run(cold bool) {
	v := func() {}
	if cold {
		v = func() {}
	}
	v()
}
`)
	run := node(t, g, "Run")
	wantEdges(t, run, "ref:lit", "ref:lit", "dynamic:?")
}

func TestAddressTakenFuncVarIsDynamic(t *testing.T) {
	// &v lets the binding be rewritten through the pointer, so the
	// direct call must not resolve.
	g, _ := build(t, `package demo

func mutate(p *func()) {}

func Run() {
	v := func() {}
	mutate(&v)
	v()
}
`)
	run := node(t, g, "Run")
	wantEdges(t, run, "ref:lit", "static:mutate", "dynamic:?")
}

func TestImmediatelyInvokedLiteral(t *testing.T) {
	// func(){...}() is one Static edge, not a Ref plus a call, and the
	// literal gets exactly one node.
	g, _ := build(t, `package demo

func target() {}

func Run() {
	func() { target() }()
}
`)
	run := node(t, g, "Run")
	wantEdges(t, run, "static:lit")
	if len(g.Lits) != 1 {
		t.Errorf("want 1 literal node, got %d", len(g.Lits))
	}
}

func TestNestedLiteralSeesEnclosingBinding(t *testing.T) {
	// A var bound in the enclosing body and called inside a nested
	// literal still resolves: the binding scan is per declaration.
	g, _ := build(t, `package demo

func target() {}

func sink(fn func()) {}

func Run() {
	v := func() { target() }
	sink(func() { v() })
}
`)
	run := node(t, g, "Run")
	wantEdges(t, run, "ref:lit", "static:sink", "ref:lit")
	outer := run.Out[2].Node
	wantEdges(t, outer, "static:lit")
	if outer.Out[0].Node != run.Out[0].Node {
		t.Errorf("nested call must resolve to the enclosing binding's literal")
	}
}

func TestInterfaceDispatchAndImplementers(t *testing.T) {
	// An interface call is a Dispatch edge; Implementers enumerates
	// every in-package type that could answer it — the conservative
	// fallback when the concrete receiver is unknown.
	g, _ := build(t, `package demo

type Handler interface{ OnEvent(arg uint64) }

type fast struct{}
type slow struct{ n int }
type unrelated struct{}

func (fast) OnEvent(arg uint64)     {}
func (s *slow) OnEvent(arg uint64)  { s.n++ }
func (unrelated) OnEvent(arg int)   {} // wrong signature: not a Handler

func Step(h Handler) {
	h.OnEvent(1)
}
`)
	step := node(t, g, "Step")
	wantEdges(t, step, "dispatch:OnEvent")
	impls := g.Implementers(step.Out[0].Callee)
	got := names(impls)
	want := "fast.OnEvent slow.OnEvent"
	if strings.Join(got, " ") != want {
		t.Errorf("Implementers = %v, want %q", got, want)
	}
}

func TestImplementersValueReceiverThroughPointer(t *testing.T) {
	// A pointer-receiver method set includes value-receiver methods;
	// both shapes must be enumerated.
	g, _ := build(t, `package demo

type Done interface{ OnDone(err error) }

type byValue struct{}
type byPointer struct{ n int }

func (byValue) OnDone(err error)      {}
func (b *byPointer) OnDone(err error) { b.n++ }

func fire(d Done) { d.OnDone(nil) }
`)
	fire := node(t, g, "fire")
	impls := g.Implementers(fire.Out[0].Callee)
	if got := strings.Join(names(impls), " "); got != "byValue.OnDone byPointer.OnDone" {
		t.Errorf("Implementers = %q", got)
	}
}

func TestMethodValueOffInterfaceIsDispatch(t *testing.T) {
	g, _ := build(t, `package demo

type Handler interface{ OnEvent(arg uint64) }

type impl struct{}

func (impl) OnEvent(arg uint64) {}

func bind(h Handler, sink func(uint64)) {
	sink = h.OnEvent
	_ = sink
}
`)
	wantEdges(t, node(t, g, "bind"), "dispatch:OnEvent")
}

func TestFuncFieldCallIsDynamic(t *testing.T) {
	g, _ := build(t, `package demo

type hooks struct{ fire func() }

func Run(h *hooks) {
	h.fire()
}
`)
	wantEdges(t, node(t, g, "Run"), "dynamic:?")
}

func TestFuncParamCallIsDynamic(t *testing.T) {
	g, _ := build(t, `package demo

func Run(fn func()) {
	fn()
}
`)
	wantEdges(t, node(t, g, "Run"), "dynamic:?")
}

func TestConversionIsNotACall(t *testing.T) {
	g, _ := build(t, `package demo

type Time uint64

func Run(n int) Time {
	return Time(uint64(n))
}
`)
	wantEdges(t, node(t, g, "Run"))
}

func TestBuiltinsProduceNoEdges(t *testing.T) {
	g, _ := build(t, `package demo

func Run(xs []int) int {
	xs = append(xs, 1)
	m := make(map[int]int, len(xs))
	return cap(xs) + len(m)
}
`)
	wantEdges(t, node(t, g, "Run"))
}

func TestExternalCalleeHasNoNode(t *testing.T) {
	g, _ := build(t, `package demo

import "strconv"

func Run(n int) string {
	return strconv.Itoa(n)
}
`)
	run := node(t, g, "Run")
	wantEdges(t, run, "static:Itoa")
	if run.Out[0].Node != nil {
		t.Errorf("external callee must have a nil Node")
	}
	if run.Out[0].Callee.Pkg().Path() != "strconv" {
		t.Errorf("callee package = %q", run.Out[0].Callee.Pkg().Path())
	}
}

func TestSkipFilter(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(name, src string) *ast.File {
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		return f
	}
	a := parse("a.go", "package demo\n\nfunc Keep() {}\n")
	b := parse("a_test.go", "package demo\n\nfunc Drop() {}\n")
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	pkg, err := (&types.Config{Importer: importer.Default()}).Check("example.com/internal/demo", fset, []*ast.File{a, b}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	g := Build(pkg, info, []*ast.File{a, b}, func(f *ast.File) bool {
		return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
	})
	if len(g.Ordered) != 1 || g.Ordered[0].Name() != "Keep" {
		t.Errorf("skip filter failed: nodes = %v", names(g.Ordered))
	}
}

func TestNodeNameAndBody(t *testing.T) {
	g, _ := build(t, `package demo

type T struct{}

func (t *T) M() {}
func F()       { _ = func() {} }
`)
	if got := node(t, g, "T.M").Name(); got != "T.M" {
		t.Errorf("Name = %q", got)
	}
	f := node(t, g, "F")
	if f.Body() == nil {
		t.Errorf("Body must return the declaration body")
	}
	if len(f.Out) != 1 || f.Out[0].Kind != Ref || f.Out[0].Node == nil {
		t.Fatalf("F edges = %v", edges(f))
	}
	lit := f.Out[0].Node
	if lit.Name() != "func literal" || lit.Body() == nil {
		t.Errorf("literal node name/body wrong: %q", lit.Name())
	}
}

func TestQualifiedFunctionRef(t *testing.T) {
	// A package-qualified function used as a value (strings.TrimSpace
	// handed out as a func) is not a Selection in go/types, so it needs
	// its own resolution in refEdge: without it the function would
	// vanish from every reachability walk even though it runs later.
	g, _ := build(t, `package demo

import "strings"

func Use() func(string) string { return strings.TrimSpace }
`)
	wantEdges(t, node(t, g, "Use"), "ref:TrimSpace")
}

func TestQualifiedFunctionRefAsArgument(t *testing.T) {
	g, _ := build(t, `package demo

import "strings"

func sink(f func(string) string) {}

func Setup() { sink(strings.ToUpper) }
`)
	wantEdges(t, node(t, g, "Setup"), "static:sink", "ref:ToUpper")
}
