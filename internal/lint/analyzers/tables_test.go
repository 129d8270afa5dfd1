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

// TestRegistrationTablesResolve checks that every row of isosafe's
// registration tables (deepCopySafeTypes, handoffTypes and
// workerFuncTypes) names a type that is actually declared in its
// package. A stale row is silent otherwise — matching a name that no
// longer exists polices nothing — so renames and deletions must take
// their table rows with them.
func TestRegistrationTablesResolve(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found from the analyzers package: %v", err)
	}
	tables := []struct {
		name string
		rows [][2]string
	}{
		{"deepCopySafeTypes", deepCopySafeTypes},
		{"handoffTypes", handoffTypes},
		{"workerFuncTypes", workerFuncTypes},
	}
	declared := map[string]map[string]bool{}
	for _, table := range tables {
		for _, row := range table.rows {
			pkg, typ := row[0], row[1]
			if declared[pkg] == nil {
				declared[pkg] = declaredTypes(t, filepath.Join(root, filepath.FromSlash(pkg)))
			}
			if !declared[pkg][typ] {
				t.Errorf("%s row {%q, %q} names no declared type", table.name, pkg, typ)
			}
		}
	}
}

// declaredTypes parses every non-test Go file in dir (all build-tag
// variants) and returns the names of the types it declares.
func declaredTypes(t *testing.T, dir string) map[string]bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read %s: %v", dir, err)
	}
	out := map[string]bool{}
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
			d, ok := decl.(*ast.GenDecl)
			if !ok || d.Tok != token.TYPE {
				continue
			}
			for _, spec := range d.Specs {
				out[spec.(*ast.TypeSpec).Name.Name] = true
			}
		}
	}
	return out
}
