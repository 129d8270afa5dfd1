package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"triplea/internal/lint/analysis"
	"triplea/internal/lint/ctrlflow"
)

// Poolsafe enforces the ownership discipline of the repository's
// intrusive object pools (simx events and waiters, pcie packets,
// cluster commands, the array's request/pageRef nodes, and the
// per-engine operation states). The hot path threads these objects
// through hand-placed release points; the runtime simx.PoolCheck guard
// only catches misuse on paths a test happens to execute, so this
// analyzer proves the same properties statically, per function, over
// the control-flow graph:
//
//	(a) leak-on-path    — a value obtained from a registered pool
//	    acquire must reach a release call or a sanctioned handoff on
//	    every path out of the function;
//	(b) use-after-release — no use of the value on any path after a
//	    release;
//	(c) double-release  — no path releases the same value twice;
//	(d) illegal store   — pooled pointers may not be parked in fields,
//	    slices, or maps outside the continuation allowlist.
//
// A "handoff" transfers ownership out of the function: passing the
// value to a registered sink (the typed Handler/Grantee/Done
// registration points: ScheduleEvent, AcquireG, Link.Send, Submit,
// ...), storing it into an allowlisted continuation field (pkt.Meta,
// cmd.Meta, ref.down, ...), returning it, or capturing it in a
// function literal (the closure becomes the owner). Ownership
// transfers the analyzer cannot see are audited in the source with a
// //simlint:handoff comment on the reported line.
//
// Pools, sinks, and continuation fields are registered in the tables
// below; a future pool opts in with one poolSpec line. The bodies of
// the registered acquire/release implementations themselves are exempt
// (they ARE the free-list machinery the rules protect). Test files are
// exempt: tests leak and double-handle pooled objects on purpose.
var Poolsafe = &analysis.Analyzer{
	Name: "poolsafe",
	Doc:  "enforce pooled-object ownership: release or hand off on every path, no use-after-release, no double-release, no stores outside the continuation allowlist",
	Run:  runPoolsafe,
}

// poolSpec registers one pool: the pooled object's type, the calls
// that mint or check out an object, and the calls (first argument)
// that return one. Adding a pool is adding one of these entries.
type poolSpec struct {
	name     string // diagnostic name, e.g. "pcie.Packet"
	pkg, typ string // the pooled object's defining package suffix and type name
	acquires []funcRef
	releases []funcRef
}

// poolTable registers every pool in the repository.
var poolTable = []*poolSpec{
	{
		name: "pcie.Packet", pkg: "internal/pcie", typ: "Packet",
		acquires: []funcRef{
			{"internal/pcie", "Pool", "Get"},
			{"internal/cluster", "Endpoint", "newPacket"},
		},
		releases: []funcRef{{"internal/pcie", "Pool", "Put"}},
	},
	{
		name: "cluster.Command", pkg: "internal/cluster", typ: "Command",
		acquires: []funcRef{{"internal/cluster", "CommandPool", "Get"}},
		releases: []funcRef{{"internal/cluster", "CommandPool", "Put"}},
	},
	{
		name: "array.request", pkg: "internal/array", typ: "request",
		acquires: []funcRef{{"internal/array", "Array", "newReq"}},
		releases: []funcRef{{"internal/array", "Array", "recycleReq"}},
	},
	{
		name: "array.pageRef", pkg: "internal/array", typ: "pageRef",
		acquires: []funcRef{{"internal/array", "Array", "newRef"}},
		releases: []funcRef{{"internal/array", "Array", "recycleRef"}},
	},
	{
		name: "simx.Event", pkg: "internal/simx", typ: "Event",
		acquires: []funcRef{{"internal/simx", "Engine", "newEvent"}},
		releases: []funcRef{{"internal/simx", "Engine", "recycle"}},
	},
	{
		name: "simx.waiter", pkg: "internal/simx", typ: "waiter",
		acquires: []funcRef{{"internal/simx", "Resource", "newWaiter"}},
		releases: []funcRef{{"internal/simx", "Resource", "recycleWaiter"}},
	},
	{
		name: "pcie.pendingSend", pkg: "internal/pcie", typ: "pendingSend",
		acquires: []funcRef{{"internal/pcie", "Link", "newPS"}},
		releases: []funcRef{{"internal/pcie", "Link", "recyclePS"}},
	},
	{
		name: "pcie.fwd", pkg: "internal/pcie", typ: "fwd",
		acquires: []funcRef{{"internal/pcie", "Switch", "newFwd"}},
		releases: []funcRef{{"internal/pcie", "Switch", "recycleFwd"}},
	},
	{
		name: "pcie.rcOp", pkg: "internal/pcie", typ: "rcOp",
		acquires: []funcRef{{"internal/pcie", "RootComplex", "newOp"}},
		releases: []funcRef{{"internal/pcie", "RootComplex", "recycleOp"}},
	},
	{
		name: "nand.opState", pkg: "internal/nand", typ: "opState",
		acquires: []funcRef{{"internal/nand", "Package", "newOp"}},
		releases: []funcRef{{"internal/nand", "Package", "recycleOp"}},
	},
	{
		name: "fimm.fop", pkg: "internal/fimm", typ: "fop",
		acquires: []funcRef{{"internal/fimm", "FIMM", "newOp"}},
		releases: []funcRef{{"internal/fimm", "FIMM", "recycleOp"}},
	},
}

// handoffSinks are the calls that take ownership of pooled arguments:
// the typed event/grant/transport registration points. Passing a
// tracked value (or a fresh acquire result) to one is a sanctioned
// handoff.
var handoffSinks = []funcRef{
	{"internal/simx", "Engine", "ScheduleEvent"},
	{"internal/simx", "Engine", "AtEvent"},
	{"internal/simx", "Resource", "AcquireG"},
	{"internal/simx", "Resource", "enqueue"},
	{"container/heap", "", "Push"},
	{"internal/pcie", "Link", "Send"},
	{"internal/pcie", "Link", "transmit"},
	{"internal/pcie", "RootComplex", "Inject"},
	{"internal/pcie", "Receiver", "Receive"},
	{"internal/cluster", "Endpoint", "Submit"},
	{"internal/cluster", "Endpoint", "Forward"},
	{"internal/cluster", "Endpoint", "Receive"},
	{"internal/array", "Array", "launchProgram"},
	{"internal/array", "Array", "retryRead"},
	{"internal/nand", "Package", "ReadOp"},
	{"internal/nand", "Package", "ProgramOp"},
	{"internal/nand", "Package", "EraseOp"},
	{"internal/fimm", "FIMM", "ReadOp"},
	{"internal/fimm", "FIMM", "ProgramOp"},
	{"internal/fimm", "FIMM", "EraseOp"},
}

// fieldKey names one struct field for the continuation allowlist.
type fieldKey struct {
	pkg, typ, field string
}

// handoffStores are the continuation fields a pooled pointer may be
// parked in: the stored object's ownership rides the container from
// that point (pkt.Meta carries the command across the fabric, ref.down
// parks the page's packet, a link's sendQ holds credit-stalled sends,
// the endpoint queue holds admitted commands, and the resource wait
// list holds queued waiter nodes).
var handoffStores = []fieldKey{
	{"internal/pcie", "Packet", "Meta"},
	{"internal/cluster", "Command", "Meta"},
	{"internal/array", "pageRef", "down"},
	{"internal/pcie", "Link", "sendQ"},
	{"internal/cluster", "Endpoint", "pending"},
	{"internal/simx", "Resource", "waitHead"},
	{"internal/simx", "Resource", "waitTail"},
	{"internal/simx", "waiter", "next"},
}

// handoffMarker is the audited escape hatch: a //simlint:handoff
// comment on (or just above) the reported line silences poolsafe for
// ownership transfers the analyzer cannot see.
const handoffMarker = "handoff"

func runPoolsafe(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		if isTestFile(pass, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if isPoolMachinery(pass, fd) {
				continue
			}
			// Analyze the function body, then every function literal
			// nested in it as its own function (a closure body runs at
			// another time and owns what it captures).
			for _, body := range functionBodies(fd.Body) {
				ps := &psFunc{pass: pass, reported: make(map[token.Pos]bool)}
				ps.analyze(body)
			}
		}
	}
	return nil, nil
}

// functionBodies returns body plus the body of every FuncLit nested
// anywhere inside it, in source order.
func functionBodies(body *ast.BlockStmt) []*ast.BlockStmt {
	out := []*ast.BlockStmt{body}
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			out = append(out, functionBodies(fl.Body)...)
			return false
		}
		return true
	})
	return out
}

// isPoolMachinery reports whether fd is a registered acquire or
// release implementation — the free-list internals the rules protect,
// exempt from their own discipline.
func isPoolMachinery(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	for _, p := range poolTable {
		for _, r := range p.acquires {
			if matchFunc(obj, r) {
				return true
			}
		}
		for _, r := range p.releases {
			if matchFunc(obj, r) {
				return true
			}
		}
	}
	return false
}

// acquireOf reports the pool a call mints an object from, if any.
func acquireOf(info *types.Info, call *ast.CallExpr) *poolSpec {
	fn := calleeFunc(info, call)
	if fn == nil {
		return nil
	}
	for _, p := range poolTable {
		for _, r := range p.acquires {
			if matchFunc(fn, r) {
				return p
			}
		}
	}
	return nil
}

// releaseOf reports the pool a call returns its first argument to.
func releaseOf(info *types.Info, call *ast.CallExpr) *poolSpec {
	fn := calleeFunc(info, call)
	if fn == nil {
		return nil
	}
	for _, p := range poolTable {
		for _, r := range p.releases {
			if matchFunc(fn, r) {
				return p
			}
		}
	}
	return nil
}

// isSinkCall reports whether a call is a registered handoff sink.
func isSinkCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	for _, r := range handoffSinks {
		if matchFunc(fn, r) {
			return true
		}
	}
	return false
}

// poolOfType reports the pool whose object type t is (through
// pointers), if any.
func poolOfType(t types.Type) *poolSpec {
	n, ok := namedType(t)
	if !ok {
		return nil
	}
	obj := n.Obj()
	if obj == nil || obj.Pkg() == nil {
		return nil
	}
	for _, p := range poolTable {
		if obj.Name() == p.typ && hasPathSuffix(obj.Pkg().Path(), p.pkg) {
			return p
		}
	}
	return nil
}

// allowedStore reports whether the continuation allowlist sanctions
// storing a pooled pointer into field f of named type n.
func allowedStore(n *types.Named, field string) bool {
	obj := n.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	for _, fk := range handoffStores {
		if fk.field == field && fk.typ == obj.Name() && hasPathSuffix(obj.Pkg().Path(), fk.pkg) {
			return true
		}
	}
	return false
}

// ---- per-function dataflow ----

type actKind uint8

const (
	actAcquire actKind = iota // v = pool acquire
	actRelease                // release(v)
	actHandoff                // v passed to a sink / stored in a continuation / captured / returned
	actUse                    // any other read of v
	actKill                   // v reassigned to a non-acquire value
)

type action struct {
	kind actKind
	v    *types.Var
	pool *poolSpec // for acquire
	pos  token.Pos
}

// ownership states for one tracked variable on one path.
const (
	vUnborn   uint8 = iota // declared, not yet holding a pooled value
	vOwned                 // holds an acquire result this function must discharge
	vUnowned               // holds a pooled value owned elsewhere (param, field read)
	vReleased              // released on this path
	vHanded                // handed off on this path
)

// vstate is one (state, witness) pair: pos is the acquire site while
// owned, the release site while released.
type vstate struct {
	kind uint8
	pos  token.Pos
}

type psFunc struct {
	pass     *analysis.Pass
	tracked  map[*types.Var]*poolSpec
	actions  [][]action // per CFG block, in execution order
	reported map[token.Pos]bool
}

func (fa *psFunc) reportf(pos token.Pos, format string, args ...any) {
	if fa.reported[pos] || suppressed(fa.pass, pos, handoffMarker) {
		return
	}
	fa.reported[pos] = true
	fa.pass.Reportf(pos, format, args...)
}

func (fa *psFunc) line(pos token.Pos) int { return fa.pass.Fset.Position(pos).Line }

func (fa *psFunc) analyze(body *ast.BlockStmt) {
	fa.tracked = make(map[*types.Var]*poolSpec)
	fa.collectTracked(body)

	g := ctrlflow.New(body, mayReturnCall)

	// Walk every reachable block once, producing the ordered action
	// stream (and the flow-insensitive rule (d) / unbound-acquire
	// diagnostics as a side effect).
	fa.actions = make([][]action, len(g.Blocks))
	for _, blk := range g.Blocks {
		if !blk.Live {
			continue
		}
		var acts []action
		for _, n := range blk.Nodes {
			fa.nodeActions(n, &acts)
		}
		fa.actions[blk.Index] = acts
	}

	if len(fa.tracked) == 0 {
		return
	}
	// Deterministic variable order: by declaration position.
	vars := make([]*types.Var, 0, len(fa.tracked))
	for v := range fa.tracked {
		vars = append(vars, v)
	}
	for i := 1; i < len(vars); i++ {
		for j := i; j > 0 && vars[j].Pos() < vars[j-1].Pos(); j-- {
			vars[j], vars[j-1] = vars[j-1], vars[j]
		}
	}
	for _, v := range vars {
		fa.flow(g, v)
	}
}

// collectTracked finds the variables the dataflow follows: idents
// bound to an acquire result and idents passed to a release call.
// Function literals are skipped — each is analyzed as its own function.
func (fa *psFunc) collectTracked(body *ast.BlockStmt) {
	info := fa.pass.TypesInfo
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, rhs := range n.Rhs {
					call, ok := unparen(rhs).(*ast.CallExpr)
					if !ok {
						continue
					}
					pool := acquireOf(info, call)
					if pool == nil {
						continue
					}
					if id, ok := n.Lhs[i].(*ast.Ident); ok {
						if v, ok := info.ObjectOf(id).(*types.Var); ok {
							fa.tracked[v] = pool
						}
					}
				}
			}
		case *ast.ValueSpec:
			for i, val := range n.Values {
				call, ok := unparen(val).(*ast.CallExpr)
				if !ok {
					continue
				}
				pool := acquireOf(info, call)
				if pool == nil || i >= len(n.Names) {
					continue
				}
				if v, ok := info.ObjectOf(n.Names[i]).(*types.Var); ok {
					fa.tracked[v] = pool
				}
			}
		case *ast.CallExpr:
			pool := releaseOf(info, n)
			if pool == nil || len(n.Args) == 0 {
				return true
			}
			if id, ok := unparen(n.Args[0]).(*ast.Ident); ok {
				if v, ok := info.ObjectOf(id).(*types.Var); ok {
					fa.tracked[v] = pool
				}
			}
		}
		return true
	})
}

// nodeActions emits the action stream for one CFG node (a statement or
// a branch-condition expression).
func (fa *psFunc) nodeActions(n ast.Node, out *[]action) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		fa.assignActions(n, out)
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, val := range vs.Values {
				var lhs ast.Expr
				if i < len(vs.Names) {
					lhs = vs.Names[i]
				}
				fa.assignPair(lhs, val, vs.Pos(), out)
			}
		}
	case *ast.ReturnStmt:
		for _, res := range n.Results {
			fa.walkExpr(res, true, out)
		}
	case *ast.ExprStmt:
		fa.walkExpr(n.X, false, out)
	case *ast.IncDecStmt:
		fa.walkExpr(n.X, false, out)
	case *ast.SendStmt:
		fa.walkExpr(n.Chan, false, out)
		fa.walkExpr(n.Value, false, out)
	case *ast.GoStmt:
		fa.walkExpr(n.Call, false, out)
	case *ast.DeferStmt:
		// Deferred calls are approximated as running at the defer
		// statement; no current pool user defers a release.
		fa.walkExpr(n.Call, false, out)
	case *ast.BranchStmt, *ast.EmptyStmt:
		// no expressions
	case ast.Expr:
		fa.walkExpr(n, false, out)
	case ast.Stmt:
		// Remaining simple statements: walk any expressions they hold.
		ast.Inspect(n, func(c ast.Node) bool {
			if c == n {
				return true
			}
			if e, ok := c.(ast.Expr); ok {
				fa.walkExpr(e, false, out)
				return false
			}
			return true
		})
	}
}

// assignActions handles one assignment statement pairwise.
func (fa *psFunc) assignActions(n *ast.AssignStmt, out *[]action) {
	if len(n.Lhs) == len(n.Rhs) {
		for i := range n.Rhs {
			fa.assignPair(n.Lhs[i], n.Rhs[i], n.Pos(), out)
		}
		return
	}
	// Multi-value form (x, y := f()): no registered acquire returns
	// multiple values; walk everything as plain expressions.
	for _, rhs := range n.Rhs {
		fa.walkExpr(rhs, false, out)
	}
	for _, lhs := range n.Lhs {
		fa.lhsActions(lhs, nil, n.Pos(), out)
	}
}

// assignPair handles `lhs = rhs` for one pair.
func (fa *psFunc) assignPair(lhs, rhs ast.Expr, pos token.Pos, out *[]action) {
	info := fa.pass.TypesInfo
	if call, ok := unparen(rhs).(*ast.CallExpr); ok {
		if pool := acquireOf(info, call); pool != nil {
			// Acquire arguments thread into the new object (newRef
			// stores the request it is built around), so they count as
			// handed off.
			fa.sinkArgs(call, out)
			switch l := unparen(lhs).(type) {
			case *ast.Ident:
				if v, ok := info.ObjectOf(l).(*types.Var); ok && fa.tracked[v] != nil {
					*out = append(*out, action{kind: actAcquire, v: v, pool: pool, pos: call.Pos()})
					return
				}
				fa.reportf(call.Pos(),
					"result of %s acquire is discarded: bind it, release it, or hand it off", pool.name)
			case nil:
			default:
				// Acquire straight into a field or element: legal only
				// when the destination is an allowlisted continuation.
				fa.lhsActions(lhs, rhs, pos, out)
			}
			return
		}
	}
	fa.walkExpr(rhs, false, out)
	fa.lhsActions(lhs, rhs, pos, out)
}

// lhsActions handles the destination of an assignment: kills for plain
// ident rebinds, rule (d) checks for field/element/map stores.
func (fa *psFunc) lhsActions(lhs, rhs ast.Expr, pos token.Pos, out *[]action) {
	info := fa.pass.TypesInfo
	switch l := unparen(lhs).(type) {
	case *ast.Ident:
		if v, ok := info.ObjectOf(l).(*types.Var); ok && fa.tracked[v] != nil {
			*out = append(*out, action{kind: actKill, v: v, pos: l.Pos()})
		}
	case *ast.SelectorExpr:
		fa.walkExpr(l.X, false, out)
		fa.storeCheck(l.X, l.Sel.Name, rhs, pos, out)
	case *ast.IndexExpr:
		fa.walkExpr(l.Index, false, out)
		switch x := unparen(l.X).(type) {
		case *ast.SelectorExpr:
			fa.walkExpr(x.X, false, out)
			fa.storeCheck(x.X, x.Sel.Name, rhs, pos, out)
		case *ast.Ident:
			// Element store into a local container. A local slice dies
			// with the frame; a map is a long-lived parking spot and
			// has no allowlist entry, so a pooled value stored there is
			// reported.
			fa.walkExpr(x, false, out)
			if rhs != nil {
				if t, ok := info.Types[l.X]; ok {
					if _, isMap := t.Type.Underlying().(*types.Map); isMap {
						if pool := fa.storedPool(rhs); pool != nil {
							fa.reportf(pos,
								"pooled %s stored into a map: maps outlive the release point and are outside the continuation allowlist", pool.name)
							fa.handoffStored(rhs, out)
						}
					}
				}
			}
		default:
			fa.walkExpr(l.X, false, out)
		}
	default:
		fa.walkExpr(lhs, false, out)
	}
}

// storedPool reports the pool of the value an assignment stores: the
// RHS itself, or any pooled argument of an append call.
func (fa *psFunc) storedPool(rhs ast.Expr) *poolSpec {
	info := fa.pass.TypesInfo
	if call, ok := unparen(rhs).(*ast.CallExpr); ok && isBuiltinAppend(info, call) {
		for _, a := range call.Args[1:] {
			if t, ok := info.Types[a]; ok {
				if p := poolOfType(t.Type); p != nil {
					return p
				}
			}
		}
		return nil
	}
	if t, ok := info.Types[rhs]; ok {
		return poolOfType(t.Type)
	}
	return nil
}

// handoffStored emits handoff actions for tracked idents the store
// consumed (the RHS, or the appended elements).
func (fa *psFunc) handoffStored(rhs ast.Expr, out *[]action) {
	info := fa.pass.TypesInfo
	emit := func(e ast.Expr) {
		if id, ok := unparen(e).(*ast.Ident); ok {
			if v, ok := info.ObjectOf(id).(*types.Var); ok && fa.tracked[v] != nil {
				*out = append(*out, action{kind: actHandoff, v: v, pos: id.Pos()})
				return
			}
		}
		fa.walkExpr(e, false, out)
	}
	if call, ok := unparen(rhs).(*ast.CallExpr); ok && isBuiltinAppend(info, call) {
		fa.walkExpr(call.Args[0], false, out)
		for _, a := range call.Args[1:] {
			emit(a)
		}
		return
	}
	emit(rhs)
}

// storeCheck applies rule (d) to `container.field = rhs` (or an
// element store through that field). An allowlisted store is a
// handoff; any other store of a pooled value is reported.
func (fa *psFunc) storeCheck(container ast.Expr, field string, rhs ast.Expr, pos token.Pos, out *[]action) {
	if rhs == nil {
		return
	}
	pool := fa.storedPool(rhs)
	if pool == nil {
		fa.walkExpr(rhs, false, out)
		return
	}
	info := fa.pass.TypesInfo
	if t, ok := info.Types[container]; ok {
		if n, ok := namedType(t.Type); ok && allowedStore(n, field) {
			fa.handoffStored(rhs, out)
			return
		}
		if n, ok := namedType(t.Type); ok {
			fa.reportf(pos,
				"pooled %s stored into %s.%s, outside the continuation allowlist: pooled pointers parked in unregistered state outlive their release point", pool.name, n.Obj().Name(), field)
			fa.handoffStored(rhs, out)
			return
		}
	}
	fa.reportf(pos, "pooled %s stored outside the continuation allowlist", pool.name)
	fa.handoffStored(rhs, out)
}

// sinkArgs treats every argument of a call as handed off: tracked
// idents transfer, nested acquires are consumed, everything else walks
// normally.
func (fa *psFunc) sinkArgs(call *ast.CallExpr, out *[]action) {
	for _, a := range call.Args {
		fa.walkExpr(a, true, out)
	}
}

// walkExpr emits actions for one expression in evaluation order. sunk
// means the expression's value is consumed by a sanctioned owner (a
// sink argument, a return value): a tracked ident there is a handoff
// and an acquire there needs no binding.
func (fa *psFunc) walkExpr(e ast.Expr, sunk bool, out *[]action) {
	if e == nil {
		return
	}
	info := fa.pass.TypesInfo
	switch e := e.(type) {
	case *ast.Ident:
		v, ok := info.ObjectOf(e).(*types.Var)
		if !ok || fa.tracked[v] == nil {
			return
		}
		if info.Defs[e] != nil {
			// Declaration occurrence (range variable, type-switch
			// binding): the variable takes a new, unowned value.
			*out = append(*out, action{kind: actKill, v: v, pos: e.Pos()})
			return
		}
		kind := actUse
		if sunk {
			kind = actHandoff
		}
		*out = append(*out, action{kind: kind, v: v, pos: e.Pos()})

	case *ast.CallExpr:
		switch {
		case releaseOf(info, e) != nil && len(e.Args) > 0:
			fa.walkExpr(receiverExpr(e), false, out)
			if id, ok := unparen(e.Args[0]).(*ast.Ident); ok {
				if v, ok := info.ObjectOf(id).(*types.Var); ok && fa.tracked[v] != nil {
					*out = append(*out, action{kind: actRelease, v: v, pos: e.Pos()})
				}
			} else {
				fa.walkExpr(e.Args[0], false, out)
			}
			for _, a := range e.Args[1:] {
				fa.walkExpr(a, false, out)
			}
		case acquireOf(info, e) != nil:
			fa.walkExpr(receiverExpr(e), false, out)
			fa.sinkArgs(e, out)
			if !sunk {
				fa.reportf(e.Pos(),
					"result of %s acquire is discarded: bind it, release it, or hand it off", acquireOf(info, e).name)
			}
		case isSinkCall(info, e):
			fa.walkExpr(receiverExpr(e), false, out)
			fa.sinkArgs(e, out)
		default:
			fa.walkExpr(e.Fun, false, out)
			for _, a := range e.Args {
				fa.walkExpr(a, false, out)
			}
		}

	case *ast.FuncLit:
		// The closure owns what it captures: every tracked variable
		// referenced in the body is handed off at creation. The body
		// itself is analyzed as a separate function.
		seen := make(map[*types.Var]bool)
		ast.Inspect(e.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if v, ok := info.Uses[id].(*types.Var); ok && fa.tracked[v] != nil && !seen[v] {
				seen[v] = true
				*out = append(*out, action{kind: actHandoff, v: v, pos: e.Pos()})
			}
			return true
		})

	case *ast.SelectorExpr:
		fa.walkExpr(e.X, false, out)
	case *ast.ParenExpr:
		fa.walkExpr(e.X, sunk, out)
	case *ast.UnaryExpr:
		fa.walkExpr(e.X, sunk, out)
	case *ast.StarExpr:
		fa.walkExpr(e.X, sunk, out)
	case *ast.BinaryExpr:
		fa.walkExpr(e.X, false, out)
		fa.walkExpr(e.Y, false, out)
	case *ast.IndexExpr:
		fa.walkExpr(e.X, false, out)
		fa.walkExpr(e.Index, false, out)
	case *ast.SliceExpr:
		fa.walkExpr(e.X, false, out)
		fa.walkExpr(e.Low, false, out)
		fa.walkExpr(e.High, false, out)
		fa.walkExpr(e.Max, false, out)
	case *ast.TypeAssertExpr:
		fa.walkExpr(e.X, false, out)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				fa.walkExpr(kv.Value, false, out)
				continue
			}
			fa.walkExpr(el, false, out)
		}
	case *ast.KeyValueExpr:
		fa.walkExpr(e.Value, false, out)
	}
}

// mayReturnCall reports whether a call can return: panic, os.Exit and
// log.Fatal* terminate their path instead.
func mayReturnCall(call *ast.CallExpr) bool {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name != "panic"
	case *ast.SelectorExpr:
		if pkg, ok := fun.X.(*ast.Ident); ok {
			switch {
			case pkg.Name == "os" && fun.Sel.Name == "Exit":
				return false
			case pkg.Name == "log" && (fun.Sel.Name == "Fatal" || fun.Sel.Name == "Fatalf" || fun.Sel.Name == "Fatalln"):
				return false
			}
		}
	}
	return true
}

// flow runs the per-variable dataflow to a fixpoint and reports.
func (fa *psFunc) flow(g *ctrlflow.CFG, v *types.Var) {
	pool := fa.tracked[v]
	nblocks := len(g.Blocks)
	in := make([]map[vstate]bool, nblocks)

	initial := vstate{kind: vUnowned}
	if fa.acquiredOnly(g, v) {
		initial = vstate{kind: vUnborn}
	}

	entry := g.Blocks[0]
	in[entry.Index] = map[vstate]bool{initial: true}
	work := []*ctrlflow.Block{entry}
	inWork := make([]bool, nblocks)
	inWork[entry.Index] = true

	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		inWork[blk.Index] = false

		// Transfer runs (and the reports they emit) happen in sorted
		// state order so the analyzer's own output is deterministic —
		// in particular, which witness position a deduped report keeps.
		out := make(map[vstate]bool)
		for _, st := range sortedStates(in[blk.Index]) {
			end, alive := fa.transfer(blk, v, pool, st)
			if alive {
				out[end] = true
			}
		}
		outStates := sortedStates(out)
		if blk.Returns {
			for _, st := range outStates {
				if st.kind == vOwned {
					fa.reportf(st.pos,
						"pooled %s may leak: a path to return reaches neither a release nor a sanctioned handoff (audit intentional transfers with //simlint:handoff)", pool.name)
				}
			}
		}
		for _, succ := range blk.Succs {
			if in[succ.Index] == nil {
				in[succ.Index] = make(map[vstate]bool)
			}
			grew := false
			for _, st := range outStates {
				if !in[succ.Index][st] {
					in[succ.Index][st] = true
					grew = true
				}
			}
			if grew && !inWork[succ.Index] {
				inWork[succ.Index] = true
				work = append(work, succ)
			}
		}
	}
}

// sortedStates returns a state set's members ordered by (kind, pos).
func sortedStates(set map[vstate]bool) []vstate {
	states := make([]vstate, 0, len(set))
	for st := range set { //simlint:ordered collected into a slice and sorted below
		states = append(states, st)
	}
	sort.Slice(states, func(i, j int) bool {
		if states[i].kind != states[j].kind {
			return states[i].kind < states[j].kind
		}
		return states[i].pos < states[j].pos
	})
	return states
}

// acquiredOnly reports whether v is bound by an acquire somewhere in
// this function (so it starts unborn rather than holding a value owned
// elsewhere).
func (fa *psFunc) acquiredOnly(g *ctrlflow.CFG, v *types.Var) bool {
	for _, acts := range fa.actions {
		for _, a := range acts {
			if a.v == v && a.kind == actAcquire {
				return true
			}
		}
	}
	return false
}

// transfer runs one path state through a block's actions, reporting
// violations. alive=false means the path cannot actually carry this
// state onward (currently always true; kept for clarity).
func (fa *psFunc) transfer(blk *ctrlflow.Block, v *types.Var, pool *poolSpec, st vstate) (vstate, bool) {
	for _, a := range fa.actions[blk.Index] {
		if a.v != v {
			continue
		}
		switch a.kind {
		case actAcquire:
			if st.kind == vOwned {
				fa.reportf(a.pos,
					"pooled %s reacquired before the previous object was released or handed off; the previous object leaks", pool.name)
			}
			st = vstate{kind: vOwned, pos: a.pos}
		case actRelease:
			switch st.kind {
			case vReleased:
				fa.reportf(a.pos,
					"double release of pooled %s (already released at line %d)", pool.name, fa.line(st.pos))
			}
			st = vstate{kind: vReleased, pos: a.pos}
		case actHandoff:
			if st.kind == vReleased {
				fa.reportf(a.pos,
					"use of pooled %s after release at line %d", pool.name, fa.line(st.pos))
			}
			st = vstate{kind: vHanded}
		case actUse:
			if st.kind == vReleased {
				fa.reportf(a.pos,
					"use of pooled %s after release at line %d", pool.name, fa.line(st.pos))
			}
		case actKill:
			if st.kind == vOwned {
				fa.reportf(a.pos,
					"pooled %s overwritten before release or handoff; the previous object leaks", pool.name)
			}
			st = vstate{kind: vUnowned}
		}
	}
	return st, true
}
