// Package analyzers implements simlint's two simulator-specific rules:
// units (dimensional analysis around the internal/units quantity
// types) and exhaustive (switches over simulator enums cover every
// declared constant). Both guard defects that change no test output
// until the day they matter. Same-seed reproducibility is checked at
// run time instead, by the determinism and golden-replay tests,
// TestParallelEquivalence, the race step and simcheck (see
// docs/static-analysis.md).
package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"triplea/internal/lint/analysis"
)

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

// isTestFile reports whether pos sits in a _test.go file.
func isTestFile(pass *analysis.Pass, pos token.Pos) bool {
	return strings.HasSuffix(pass.Filename(pos), "_test.go")
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

// suppressed reports whether the line holding pos, or the line just
// above it, carries a "//simlint:<marker>" comment — the audited-site
// escape hatch (see docs/static-analysis.md). The marker must end at a
// token boundary, so "simlint:unit" would not match "simlint:units".
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
	return []*analysis.Analyzer{Units, Exhaustive}
}
