// Package analysistest runs simlint analyzers over golden testdata
// packages, mirroring golang.org/x/tools/go/analysis/analysistest with
// only the standard library.
//
// A testdata tree is laid out GOPATH-style under <dir>/src/<importpath>.
// Imports are resolved inside the tree only, keeping tests hermetic and
// fast, so fixture import paths mirror the real repository
// ("triplea/internal/simx", ...) and the analyzers' package matching
// logic is exercised unchanged.
//
// Expected findings are declared in the fixture source with the
// x/tools comment convention:
//
//	_ = units.Bytes(4096) // want `bare numeric literal used as units\.Bytes`
//
// Each quoted string is a regexp that must match one diagnostic
// reported on that line; diagnostics with no matching want, and wants
// with no matching diagnostic, fail the test.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"triplea/internal/lint/analysis"
)

// Run loads each named package from dir/src and applies the analyzer,
// comparing reported diagnostics against the package's want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgpaths ...string) {
	t.Helper()
	l := newLoader(filepath.Join(dir, "src"))
	for _, path := range pkgpaths {
		t.Run(strings.ReplaceAll(path, "/", "_"), func(t *testing.T) {
			t.Helper()
			pd, err := l.load(path)
			if err != nil {
				t.Fatalf("loading %s: %v", path, err)
			}
			runOne(t, l, a, pd)
		})
	}
}

func runOne(t *testing.T, l *loader, a *analysis.Analyzer, pd *pkgData) {
	t.Helper()
	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      l.fset,
		Files:     pd.files,
		Pkg:       pd.pkg,
		TypesInfo: pd.info,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if _, err := a.Run(pass); err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}

	wants := collectWants(t, l.fset, pd.files)
	for _, d := range diags {
		p := l.fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
		if !wants.match(key, d.Message) {
			t.Errorf("%s: unexpected diagnostic: %s", key, d.Message)
		}
	}
	wants.reportUnmatched(t)
}

// wantSet tracks expectations by file:line.
type wantSet struct {
	byKey map[string][]*wantExpr
}

type wantExpr struct {
	rx      *regexp.Regexp
	matched bool
}

func (w *wantSet) match(key, message string) bool {
	for _, we := range w.byKey[key] {
		if !we.matched && we.rx.MatchString(message) {
			we.matched = true
			return true
		}
	}
	return false
}

func (w *wantSet) reportUnmatched(t *testing.T) {
	t.Helper()
	keys := make([]string, 0, len(w.byKey))
	for k := range w.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, we := range w.byKey[k] {
			if !we.matched {
				t.Errorf("%s: expected diagnostic matching %q, got none", k, we.rx)
			}
		}
	}
}

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) *wantSet {
	t.Helper()
	ws := &wantSet{byKey: make(map[string][]*wantExpr)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				idx := strings.Index(text, "want ")
				if idx < 0 {
					continue
				}
				rest := strings.TrimSpace(text[idx+len("want "):])
				p := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
				for rest != "" {
					q, err := strconv.QuotedPrefix(rest)
					if err != nil {
						t.Fatalf("%s: malformed want comment %q: %v", key, text, err)
					}
					s, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: malformed want string %q: %v", key, q, err)
					}
					rx, err := regexp.Compile(s)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", key, s, err)
					}
					ws.byKey[key] = append(ws.byKey[key], &wantExpr{rx: rx})
					rest = strings.TrimSpace(rest[len(q):])
				}
			}
		}
	}
	return ws
}

// loader resolves and type-checks packages from the testdata tree.
type loader struct {
	src  string
	fset *token.FileSet
	pkgs map[string]*pkgData
}

type pkgData struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func newLoader(src string) *loader {
	return &loader{src: src, fset: token.NewFileSet(), pkgs: make(map[string]*pkgData)}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func (l *loader) load(path string) (*pkgData, error) {
	if pd, ok := l.pkgs[path]; ok {
		if pd == nil {
			return nil, fmt.Errorf("import cycle through %q", path)
		}
		return pd, nil
	}
	l.pkgs[path] = nil // cycle marker

	dir := filepath.Join(l.src, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("package %q not found in testdata: %w", path, err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("package %q has no Go files", path)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: importerFunc(func(p string) (*types.Package, error) {
			pd, err := l.load(p)
			if err != nil {
				return nil, err
			}
			return pd.pkg, nil
		}),
	}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %q: %w", path, err)
	}
	pd := &pkgData{pkg: pkg, files: files, info: info}
	l.pkgs[path] = pd
	return pd, nil
}
