package analyzers

// Unit tests for the shared registration-table plumbing. The golden
// analysistest packages exercise these helpers indirectly through every
// analyzer; the tests here pin their contracts directly so a refactor
// of one analyzer cannot silently shift the meaning of another's
// registration table.

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"triplea/internal/lint/analysis"
)

// typecheck parses and type-checks one in-memory file as package path
// "example.com/demo" and returns everything a helper under test needs.
func typecheck(t *testing.T, src string) (*token.FileSet, *ast.File, *types.Package, *types.Info) {
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
	return fset, f, pkg, info
}

func TestHasPathSuffix(t *testing.T) {
	cases := []struct {
		path, suffix string
		want         bool
	}{
		{"internal/simx", "internal/simx", true},
		{"triplea/internal/simx", "internal/simx", true},
		{"triplea/internal/simxtra", "internal/simx", false},
		{"internal/simx", "simx", true},
		{"xinternal/simx", "internal/simx", false},
		{"", "internal/simx", false},
	}
	for _, c := range cases {
		if got := hasPathSuffix(c.path, c.suffix); got != c.want {
			t.Errorf("hasPathSuffix(%q, %q) = %v, want %v", c.path, c.suffix, got, c.want)
		}
	}
}

func TestInPackageSet(t *testing.T) {
	set := []string{"internal/simx", "internal/nand"}
	if !inPackageSet("triplea/internal/nand", set) {
		t.Errorf("internal/nand should be in the set")
	}
	if inPackageSet("triplea/internal/metrics", set) {
		t.Errorf("internal/metrics should not be in the set")
	}
}

const matchSrc = `package demo

type Pool struct{}

func (p *Pool) Get() *Obj  { return nil }
func (p Pool) Peek() *Obj  { return nil }
func Free(o *Obj)          {}

type Obj struct{ next *Obj }

type Iface interface{ Get() *Obj }
`

// lookupFunc resolves a declared function or method by receiver and name.
func lookupFunc(t *testing.T, pkg *types.Package, info *types.Info, f *ast.File, recv, name string) *types.Func {
	t.Helper()
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Name.Name != name {
			continue
		}
		fn, ok := info.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		sig := fn.Type().(*types.Signature)
		if recv == "" && sig.Recv() == nil {
			return fn
		}
		if recv != "" && sig.Recv() != nil {
			if n, ok := namedType(sig.Recv().Type()); ok && n.Obj().Name() == recv {
				return fn
			}
		}
	}
	t.Fatalf("function %s.%s not found", recv, name)
	return nil
}

func TestMatchFunc(t *testing.T) {
	_, f, pkg, info := typecheck(t, matchSrc)
	get := lookupFunc(t, pkg, info, f, "Pool", "Get")
	free := lookupFunc(t, pkg, info, f, "", "Free")

	if !matchFunc(get, funcRef{"internal/demo", "Pool", "Get"}) {
		t.Errorf("pointer-receiver method should match its registration")
	}
	if matchFunc(get, funcRef{"internal/demo", "Pool", "Put"}) {
		t.Errorf("name mismatch should not match")
	}
	if matchFunc(get, funcRef{"internal/other", "Pool", "Get"}) {
		t.Errorf("package mismatch should not match")
	}
	if matchFunc(get, funcRef{"internal/demo", "", "Get"}) {
		t.Errorf("method should not match a package-level registration")
	}
	if !matchFunc(free, funcRef{"internal/demo", "", "Free"}) {
		t.Errorf("package-level function should match")
	}
	if matchFunc(free, funcRef{"internal/demo", "Pool", "Free"}) {
		t.Errorf("package-level function should not match a method registration")
	}
	if matchFunc(nil, funcRef{"internal/demo", "", "Free"}) {
		t.Errorf("nil *types.Func should never match")
	}
}

const calleeSrc = `package demo

type Pool struct{}

func (p *Pool) Get() int { return 0 }
func Top() int           { return 0 }

func use(p *Pool) (int, int, int) {
	a := p.Get()
	b := Top()
	f := func() int { return 1 }
	c := f()
	return a, b, c
}
`

func TestCalleeFunc(t *testing.T) {
	_, f, _, info := typecheck(t, calleeSrc)
	var got []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeFunc(info, call); fn != nil {
			got = append(got, fn.Name())
		} else {
			got = append(got, "<dynamic>")
		}
		return true
	})
	want := []string{"Get", "Top", "<dynamic>"}
	if len(got) != len(want) {
		t.Fatalf("resolved callees = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("callee %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestReceiverExpr(t *testing.T) {
	_, f, _, _ := typecheck(t, calleeSrc)
	var sawRecv, sawBare bool
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Get" {
			if id, ok := receiverExpr(call).(*ast.Ident); !ok || id.Name != "p" {
				t.Errorf("receiverExpr of p.Get() = %v, want ident p", receiverExpr(call))
			}
			sawRecv = true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "Top" {
			if receiverExpr(call) != nil {
				t.Errorf("receiverExpr of a bare call should be nil")
			}
			sawBare = true
		}
		return true
	})
	if !sawRecv || !sawBare {
		t.Fatalf("test did not visit both call shapes (recv=%v bare=%v)", sawRecv, sawBare)
	}
}

const appendSrc = `package demo

func use(xs []int) []int {
	xs = append(xs, 1)
	ys := append(xs)
	_ = ys
	return xs
}
`

func TestIsBuiltinAppend(t *testing.T) {
	_, f, _, info := typecheck(t, appendSrc)
	var got []bool
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			got = append(got, isBuiltinAppend(info, call))
		}
		return true
	})
	// append(xs, 1) qualifies; append(xs) has no appended element.
	want := []bool{true, false}
	if len(got) != len(want) {
		t.Fatalf("saw %d calls, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("call %d: isBuiltinAppend = %v, want %v", i, got[i], want[i])
		}
	}
}

const namedSrc = `package demo

type Spec struct{ N int }
type Alias = Spec

func vals() (Spec, *Spec, Alias, int) { return Spec{}, nil, Spec{}, 0 }
`

func TestNamedStrictAndRegistry(t *testing.T) {
	_, f, pkg, info := typecheck(t, namedSrc)
	sig := lookupFunc(t, pkg, info, f, "", "vals").Type().(*types.Signature)
	spec := sig.Results().At(0).Type()
	ptr := sig.Results().At(1).Type()
	alias := sig.Results().At(2).Type()
	basic := sig.Results().At(3).Type()

	if !namedStrict(spec, "internal/demo", "Spec") {
		t.Errorf("value type should match namedStrict")
	}
	if namedStrict(ptr, "internal/demo", "Spec") {
		t.Errorf("pointer type must NOT match namedStrict (shared reference)")
	}
	if !namedStrict(alias, "internal/demo", "Spec") {
		t.Errorf("alias should resolve to its named type")
	}
	if namedStrict(basic, "internal/demo", "Spec") {
		t.Errorf("basic type should not match")
	}

	table := [][2]string{{"internal/demo", "Spec"}}
	if !isRegisteredNamed(spec, table) {
		t.Errorf("registered value type should pass isRegisteredNamed")
	}
	if isRegisteredNamed(ptr, table) {
		t.Errorf("pointer to a registered type should fail isRegisteredNamed")
	}

	// The pointer-unwrapping variant used by poolsafe's type matching.
	if !isNamed(ptr, "internal/demo", "Spec") {
		t.Errorf("isNamed should unwrap the pointer")
	}
	if n, ok := namedType(ptr); !ok || n.Obj().Name() != "Spec" {
		t.Errorf("namedType should unwrap *Spec to Spec")
	}
}

const pkgVarSrc = `package demo

var Global = map[string]int{}
var Counter int

type box struct{ n int }

func use() {
	local := 0
	local++
	Counter++
	Global["k"] = 1
	b := box{}
	b.n = 2
	_ = local
}
`

func TestPkgLevelVar(t *testing.T) {
	_, f, _, info := typecheck(t, pkgVarSrc)
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if v := pkgLevelVar(info, lhs); v != nil {
					names = append(names, v.Name())
				}
			}
		case *ast.IncDecStmt:
			if v := pkgLevelVar(info, n.X); v != nil {
				names = append(names, v.Name())
			}
		}
		return true
	})
	want := []string{"Counter", "Global"}
	if len(names) != len(want) {
		t.Fatalf("package-level lvalue roots = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("root %d = %q, want %q", i, names[i], want[i])
		}
	}
}

const suppressSrc = `package demo

func a() int {
	return 1 //simlint:ordered audited example
}

func b() int {
	//simlint:ordered the line above form
	return 2
}

func c() int {
	return 3
}
`

func TestSuppressed(t *testing.T) {
	fset, f, pkg, info := typecheck(t, suppressSrc)
	pass := &analysis.Pass{
		Fset:      fset,
		Files:     []*ast.File{f},
		Pkg:       pkg,
		TypesInfo: info,
	}
	var rets []*ast.ReturnStmt
	ast.Inspect(f, func(n ast.Node) bool {
		if r, ok := n.(*ast.ReturnStmt); ok {
			rets = append(rets, r)
		}
		return true
	})
	if len(rets) != 3 {
		t.Fatalf("want 3 return statements, got %d", len(rets))
	}
	if !suppressed(pass, rets[0].Pos(), "ordered") {
		t.Errorf("same-line marker should suppress")
	}
	if !suppressed(pass, rets[1].Pos(), "ordered") {
		t.Errorf("line-above marker should suppress")
	}
	if suppressed(pass, rets[2].Pos(), "ordered") {
		t.Errorf("unmarked line must not be suppressed")
	}
	if suppressed(pass, rets[0].Pos(), "handoff") {
		t.Errorf("marker names a different rule; must not suppress")
	}
	if suppressed(pass, rets[0].Pos(), "order") {
		t.Errorf("simlint:ordered must not satisfy a simlint:order marker")
	}
}

func TestMarkerAt(t *testing.T) {
	cases := []struct {
		text, want string
		hit        bool
	}{
		{"simlint:order", "simlint:order", true},
		{"simlint:ordered", "simlint:order", false},
		{"simlint:ordered", "simlint:ordered", true},
		{" simlint:order (sorted below)", "simlint:order", true},
		{"simlint:ordered simlint:order", "simlint:order", true},
		{"nothing here", "simlint:order", false},
	}
	for _, c := range cases {
		if got := markerAt(c.text, c.want); got != c.hit {
			t.Errorf("markerAt(%q, %q) = %v, want %v", c.text, c.want, got, c.hit)
		}
	}
}

func TestUnparen(t *testing.T) {
	inner := &ast.Ident{Name: "x"}
	wrapped := ast.Expr(&ast.ParenExpr{X: &ast.ParenExpr{X: inner}})
	if unparen(wrapped) != inner {
		t.Errorf("unparen should strip nested parens")
	}
	if unparen(inner) != inner {
		t.Errorf("unparen of a bare expr is the expr")
	}
}
