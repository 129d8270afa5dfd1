package analyzers

// Unit tests for the helpers units and exhaustive share. The golden
// analysistest packages exercise them indirectly through both
// analyzers; the tests here pin their contracts directly.

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

// lookupFunc resolves a declared package-level function by name.
func lookupFunc(t *testing.T, info *types.Info, f *ast.File, name string) *types.Func {
	t.Helper()
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Recv != nil || fd.Name.Name != name {
			continue
		}
		if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
			return fn
		}
	}
	t.Fatalf("function %s not found", name)
	return nil
}

const namedSrc = `package demo

type Spec struct{ N int }
type Alias = Spec

func vals() (Spec, *Spec, Alias, int) { return Spec{}, nil, Spec{}, 0 }
`

func TestIsNamed(t *testing.T) {
	_, f, _, info := typecheck(t, namedSrc)
	sig := lookupFunc(t, info, f, "vals").Type().(*types.Signature)
	spec := sig.Results().At(0).Type()
	ptr := sig.Results().At(1).Type()
	alias := sig.Results().At(2).Type()
	basic := sig.Results().At(3).Type()

	if !isNamed(spec, "internal/demo", "Spec") {
		t.Errorf("value type should match isNamed")
	}
	if !isNamed(ptr, "internal/demo", "Spec") {
		t.Errorf("isNamed should unwrap the pointer")
	}
	if !isNamed(alias, "internal/demo", "Spec") {
		t.Errorf("alias should resolve to its named type")
	}
	if isNamed(basic, "internal/demo", "Spec") {
		t.Errorf("basic type should not match")
	}
	if isNamed(spec, "internal/other", "Spec") {
		t.Errorf("a type of another package should not match")
	}
	if n, ok := namedType(ptr); !ok || n.Obj().Name() != "Spec" {
		t.Errorf("namedType should unwrap *Spec to Spec")
	}
}

const suppressSrc = `package demo

func a() int {
	return 1 //simlint:units audited example
}

func b() int {
	//simlint:units the line above form
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
	if !suppressed(pass, rets[0].Pos(), "units") {
		t.Errorf("same-line marker should suppress")
	}
	if !suppressed(pass, rets[1].Pos(), "units") {
		t.Errorf("line-above marker should suppress")
	}
	if suppressed(pass, rets[2].Pos(), "units") {
		t.Errorf("unmarked line must not be suppressed")
	}
	if suppressed(pass, rets[0].Pos(), "partial") {
		t.Errorf("marker names a different rule; must not suppress")
	}
	if suppressed(pass, rets[0].Pos(), "unit") {
		t.Errorf("simlint:units must not satisfy a simlint:unit marker")
	}
}

func TestMarkerAt(t *testing.T) {
	cases := []struct {
		text, want string
		hit        bool
	}{
		{"simlint:unit", "simlint:unit", true},
		{"simlint:units", "simlint:unit", false},
		{"simlint:units", "simlint:units", true},
		{" simlint:unit (audited below)", "simlint:unit", true},
		{"simlint:units simlint:unit", "simlint:unit", true},
		{"nothing here", "simlint:unit", false},
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
