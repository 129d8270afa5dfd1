package analyzers

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRegistrationTablesResolve checks that every repository entry in
// poolsafe's registration tables (poolTable's acquires and releases,
// and handoffSinks) names a function that is actually declared: a
// method on the named type (or an interface method of it), or a
// package-level function. A stale entry is silent otherwise — matching
// a name that no longer exists polices nothing — so renames and
// deletions must take their table rows with them.
func TestRegistrationTablesResolve(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found from the analyzers package: %v", err)
	}
	refs := append([]funcRef(nil), handoffSinks...)
	for _, p := range poolTable {
		refs = append(refs, p.acquires...)
		refs = append(refs, p.releases...)
	}
	declared := map[string]map[funcRef]bool{}
	for _, ref := range refs {
		if !strings.HasPrefix(ref.pkg, "internal/") {
			continue // stdlib entries are outside this module
		}
		if declared[ref.pkg] == nil {
			declared[ref.pkg] = declaredFuncs(t, filepath.Join(root, filepath.FromSlash(ref.pkg)), ref.pkg)
		}
		if !declared[ref.pkg][ref] {
			t.Errorf("registration %s.%s.%s names no declared function", ref.pkg, ref.recv, ref.name)
		}
	}
}

// declaredFuncs parses every non-test Go file in dir (all build-tag
// variants) and returns the functions it declares as funcRefs.
func declaredFuncs(t *testing.T, dir, pkg string) map[funcRef]bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read %s: %v", dir, err)
	}
	out := map[funcRef]bool{}
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				recv := ""
				if d.Recv != nil && len(d.Recv.List) == 1 {
					recv = receiverTypeName(d.Recv.List[0].Type)
				}
				out[funcRef{pkg, recv, d.Name.Name}] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					iface, ok := ts.Type.(*ast.InterfaceType)
					if !ok {
						continue
					}
					for _, m := range iface.Methods.List {
						for _, n := range m.Names {
							out[funcRef{pkg, ts.Name.Name, n.Name}] = true
						}
					}
				}
			}
		}
	}
	return out
}

// receiverTypeName strips pointers and type parameters from a method
// receiver's type expression.
func receiverTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
