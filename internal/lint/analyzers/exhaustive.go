package analyzers

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"triplea/internal/lint/analysis"
)

// Exhaustive requires every switch over a simulator enum to cover all
// of the enum's declared constants, or to carry a default clause
// audited with //simlint:partial.
//
// The simulator's behavior forks on small closed enums everywhere —
// trace.Op, cluster.Op, nand.Op, nand.PageState, pcie.Kind,
// metrics.RequestKind, ftl.Layout, ftl.WriteKind, core.LaggardStrategy.
// Adding a constant to one of them (a new op kind, a new write source)
// must break `go vet`, not fall silently into a default arm that counts
// it as something else.
//
// An enum, for this rule, is any named integer type defined in one of
// the repository's internal packages with at least two package-level
// constants of that type. The unit-quantity types (internal/units,
// simx.Time, topo.PPN) are excluded — their constants are units, not
// alternatives. A switch with a non-constant case expression is left
// alone (it is a comparison, not an enumeration), as are tagless
// switches. Test files are exempt.
var Exhaustive = &analysis.Analyzer{
	Name: "exhaustive",
	Doc:  "require switches over simulator enums to cover every declared constant or carry an audited //simlint:partial default",
	Run:  runExhaustive,
}

func runExhaustive(pass *analysis.Pass) (any, error) {
	info := pass.TypesInfo
	for _, file := range pass.Files {
		if isTestFile(pass, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			checkExhaustiveSwitch(pass, info, sw)
			return true
		})
	}
	return nil, nil
}

func checkExhaustiveSwitch(pass *analysis.Pass, info *types.Info, sw *ast.SwitchStmt) {
	named, ok := namedType(info.TypeOf(sw.Tag))
	if !ok {
		return
	}
	if !isRepoEnumType(named) {
		return
	}
	declared := enumConstants(named)
	if len(declared) < 2 {
		return
	}

	covered := map[int64]bool{}
	var defaultClause *ast.CaseClause
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			defaultClause = cc
			continue
		}
		for _, expr := range cc.List {
			tv, ok := info.Types[expr]
			if !ok || tv.Value == nil {
				return // non-constant case: a comparison, not an enumeration
			}
			if v, exact := constant.Int64Val(constant.ToInt(tv.Value)); exact {
				covered[v] = true
			}
		}
	}

	var missing []string
	for _, c := range declared {
		if !covered[c.value] {
			missing = append(missing, c.name)
		}
	}
	if len(missing) == 0 {
		return
	}
	if defaultClause != nil &&
		(suppressed(pass, defaultClause.Pos(), "partial") || suppressed(pass, sw.Pos(), "partial")) {
		return
	}
	typeName := named.Obj().Name()
	if pkg := named.Obj().Pkg(); pkg != nil && pkg != pass.Pkg {
		typeName = pkg.Name() + "." + typeName
	}
	if defaultClause != nil {
		pass.Reportf(sw.Pos(),
			"switch over %s does not cover %s; add the cases or audit the default with //simlint:partial",
			typeName, strings.Join(missing, ", "))
		return
	}
	pass.Reportf(sw.Pos(),
		"switch over %s does not cover %s and has no default; add the cases or an audited //simlint:partial default",
		typeName, strings.Join(missing, ", "))
}

// isRepoEnumType reports whether named is an enum candidate: an
// integer-kinded named type defined in a repository internal package,
// excluding the unit-quantity types.
func isRepoEnumType(named *types.Named) bool {
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	if !strings.Contains(path, "internal/") && !strings.HasPrefix(path, "internal") {
		return false
	}
	if _, isUnit := unitTypeName(named); isUnit {
		return false
	}
	if inPackageSet(path, unitDefiningPackages) {
		return false
	}
	b, ok := named.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

type enumConst struct {
	name  string
	value int64
}

// enumConstants lists the package-level constants of type named
// declared in its defining package, deduplicated by value (aliases
// like an explicit OpDefault = OpRead count once), in declaration
// position order.
func enumConstants(named *types.Named) []enumConst {
	pkg := named.Obj().Pkg()
	if pkg == nil {
		return nil
	}
	scope := pkg.Scope()
	seen := map[int64]bool{}
	var out []enumConst
	var poses []token.Pos
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		if !types.Identical(c.Type(), named) {
			continue
		}
		v, exact := constant.Int64Val(constant.ToInt(c.Val()))
		if !exact || seen[v] {
			continue
		}
		seen[v] = true
		out = append(out, enumConst{name: name, value: v})
		poses = append(poses, c.Pos())
	}
	sort.Sort(&byPos{out, poses})
	return out
}

type byPos struct {
	consts []enumConst
	poses  []token.Pos
}

func (b *byPos) Len() int           { return len(b.consts) }
func (b *byPos) Less(i, j int) bool { return b.poses[i] < b.poses[j] }
func (b *byPos) Swap(i, j int) {
	b.consts[i], b.consts[j] = b.consts[j], b.consts[i]
	b.poses[i], b.poses[j] = b.poses[j], b.poses[i]
}
