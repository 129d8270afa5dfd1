//go:build !simcheck

package analyzers_test

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"triplea/internal/lint/analysis"
	"triplea/internal/lint/analyzers"
)

// listedPackage is the part of `go list -json` output the test reads.
type listedPackage struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	Module                  *struct{ Path, Dir string }
}

// TestRepository runs every analyzer over every package of the triplea
// module, in the default build and with -tags simcheck, and reports each
// finding as a test error at its file:line. The file carries the
// !simcheck constraint because one run covers both variants. Test files
// are not loaded: both analyzers skip them.
func TestRepository(t *testing.T) {
	for _, tags := range []string{"", "simcheck"} {
		t.Run("tags="+tags, func(t *testing.T) { lintModule(t, tags) })
	}
}

// lintModule type-checks each module package's GoFiles against the
// export data `go list -export` built, and runs the analyzers on it.
func lintModule(t *testing.T, tags string) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "-tags="+tags, "triplea/...")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var pkgs []listedPackage
	export := make(map[string]string)
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		export[p.ImportPath] = p.Export
		if p.Module != nil && p.Module.Path == "triplea" {
			pkgs = append(pkgs, p)
		}
	}
	if len(pkgs) == 0 {
		t.Fatal("go list found no triplea packages")
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(export[path])
	})
	read := map[string]bool{filepath.Dir(pkgs[0].Module.Dir): true}
	for _, p := range pkgs {
		// The test cache keys on what the test opens. Listing the
		// package's directory and each one above it up to the module
		// root (read starts at the root's parent) makes a new file or
		// a new package rerun the test.
		for dir := p.Dir; !read[dir]; dir = filepath.Dir(dir) {
			read[dir] = true
			if _, err := os.ReadDir(dir); err != nil {
				t.Fatal(err)
			}
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types: make(map[ast.Expr]types.TypeAndValue),
			Defs:  make(map[*ast.Ident]types.Object),
			Uses:  make(map[*ast.Ident]types.Object),
		}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		for _, a := range analyzers.All() {
			pass := &analysis.Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info,
				Report: func(d analysis.Diagnostic) { t.Errorf("%s: %s", fset.Position(d.Pos), d.Message) }}
			if _, err := a.Run(pass); err != nil {
				t.Fatalf("%s on %s: %v", a.Name, p.ImportPath, err)
			}
		}
	}
}
