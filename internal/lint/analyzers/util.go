// Package analyzers implements simlint's simulator-specific rules.
// Every rule serves one requirement from the paper's evaluation: a
// simulation run must be fully reproducible for a given input, so the
// figures and tables in EXPERIMENTS.md can be regenerated bit-for-bit.
package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"triplea/internal/lint/analysis"
)

// simPackageSuffixes lists the packages forming the deterministic
// simulation core. Wall-clock time is banned inside them (walltime)
// and event-order hazards are policed there (maporder).
var simPackageSuffixes = []string{
	"internal/simx",
	"internal/nand",
	"internal/fimm",
	"internal/cluster",
	"internal/pcie",
	"internal/ftl",
	"internal/array",
	"internal/core",
	"internal/fault",
}

// isoStatePackageSuffixes extends the simulation core with its pure
// data/support packages; isosafe's mutable-global rule covers all of
// them, because a run is only repeatable if nothing it reads can be
// written by a concurrent sibling run.
var isoStatePackageSuffixes = append([]string{
	"internal/topo",
	"internal/workload",
	"internal/metrics",
	"internal/trace",
	"internal/decision",
}, simPackageSuffixes...)

// orchestrationPackageSuffixes is the one scope where concurrency is
// legal: nospawn skips it and isosafe certifies it under stricter,
// capture- and handoff-aware rules.
var orchestrationPackageSuffixes = []string{
	"internal/sweep",
}

// floatPackageSuffixes lists the packages whose floating-point
// arithmetic feeds reported numbers (floateq's scope).
var floatPackageSuffixes = []string{
	"internal/metrics",
	"internal/cost",
	"internal/experiments",
}

// hasPathSuffix reports whether the import path is exactly suffix or
// ends in "/"+suffix (so "triplea/internal/simx" matches
// "internal/simx" but "internal/simxtra" does not).
func hasPathSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

func inPackageSet(path string, suffixes []string) bool {
	for _, s := range suffixes {
		if hasPathSuffix(path, s) {
			return true
		}
	}
	return false
}

// isSimPackage reports whether pkg belongs to the simulation core.
func isSimPackage(pkg *types.Package) bool {
	return pkg != nil && inPackageSet(pkg.Path(), simPackageSuffixes)
}

// isTestFile reports whether pos sits in a _test.go file.
func isTestFile(pass *analysis.Pass, pos token.Pos) bool {
	return strings.HasSuffix(pass.Filename(pos), "_test.go")
}

// importedPackage resolves a selector base expression to the package
// it names, if the expression is a package qualifier (e.g. the `time`
// in `time.Now`).
func importedPackage(info *types.Info, expr ast.Expr) (*types.Package, bool) {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return nil, false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return nil, false
	}
	return pn.Imported(), true
}

// namedType unwraps t (through pointers and aliases) to a named type,
// if it is one.
func namedType(t types.Type) (*types.Named, bool) {
	if t == nil {
		return nil, false
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, ok := t.(*types.Named)
	return n, ok
}

// isNamed reports whether t is the named type pkgSuffix.name, where
// pkgSuffix is matched against the end of the defining package's path
// (so fake packages in analyzer testdata qualify alongside the real
// ones).
func isNamed(t types.Type, pkgSuffix, name string) bool {
	n, ok := namedType(t)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Name() != name {
		return false
	}
	return hasPathSuffix(obj.Pkg().Path(), pkgSuffix)
}

// isSimxTime reports whether t is simx.Time.
func isSimxTime(t types.Type) bool {
	return isNamed(t, "internal/simx", "Time") || isNamed(t, "simx", "Time")
}

// isDuration reports whether t is time.Duration.
func isDuration(t types.Type) bool { return isNamed(t, "time", "Duration") }

// ---- registration-table plumbing ----
//
// isosafe declares its policy as tables of {package-suffix, type-name}
// pairs; the matching machinery below gives every row the same
// meaning.

// namedStrict is like isNamed but does NOT unwrap pointers:
// *array.Config is a shared reference, not a registered value type.
func namedStrict(t types.Type, pkgSuffix, name string) bool {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Name() == name &&
		hasPathSuffix(obj.Pkg().Path(), pkgSuffix)
}

// isRegisteredNamed reports whether t (without pointer unwrapping)
// matches any {package-suffix, type-name} pair of a registry table.
func isRegisteredNamed(t types.Type, table [][2]string) bool {
	for _, r := range table {
		if namedStrict(t, r[0], r[1]) {
			return true
		}
	}
	return false
}

// pkgLevelVar resolves the base of an lvalue chain (selectors, indexes,
// derefs) to a package-level var, if that is what it roots in.
func pkgLevelVar(info *types.Info, e ast.Expr) *types.Var {
	for e != nil {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if _, ok := importedPackage(info, x.X); ok {
				e = x.Sel
			} else {
				e = x.X
			}
		case *ast.Ident:
			v, ok := info.Uses[x].(*types.Var)
			if ok && !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v
			}
			return nil
		default:
			return nil
		}
	}
	return nil
}

// suppressed reports whether the line holding pos, or the line just
// above it, carries a "//simlint:<marker>" comment — the audited-site
// escape hatch (see docs/static-analysis.md). The marker must end at a
// token boundary, so "simlint:order" would not match "simlint:ordered".
func suppressed(pass *analysis.Pass, pos token.Pos, marker string) bool {
	file := pass.FileAt(pos)
	if file == nil {
		return false
	}
	line := pass.Fset.Position(pos).Line
	want := "simlint:" + marker
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			cl := pass.Fset.Position(c.Pos()).Line
			if cl != line && cl != line-1 {
				continue
			}
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimPrefix(text, "/*")
			if markerAt(text, want) {
				return true
			}
		}
	}
	return false
}

// markerAt reports whether text contains want followed by a token
// boundary (end of text or a non-identifier character).
func markerAt(text, want string) bool {
	for at := 0; ; {
		i := strings.Index(text[at:], want)
		if i < 0 {
			return false
		}
		end := at + i + len(want)
		if end == len(text) || !isIdentChar(text[end]) {
			return true
		}
		at = end
	}
}

func isIdentChar(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')
}

// baseFilename reports the basename of the file holding pos.
func baseFilename(pass *analysis.Pass, pos token.Pos) string {
	return filepath.Base(pass.Filename(pos))
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

// All returns the full simlint analyzer suite in a stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Walltime,
		Globalrand,
		Maporder,
		Floateq,
		Simtime,
		Units,
		Exhaustive,
		Nospawn,
		Isosafe,
	}
}
