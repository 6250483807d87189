// Package determinism enforces the simulator's bit-determinism contract:
// same seed → identical counters (docs/ROBUSTNESS.md). In the simulator
// packages it forbids the classic sources of run-to-run variation:
//
//  1. wall-clock reads (time.Now and friends) — simulated time comes from
//     the cost model, never from the host;
//  2. the global math/rand generators — randomness must flow from a seeded
//     *rand.Rand owned by the run so replays are exact;
//  3. scheduler/host-state queries (runtime.NumGoroutine and friends) —
//     thread counts come from the simulated machine config;
//  4. iteration over a map in an order-sensitive way. A map range is allowed
//     only when the loop provably feeds an order-insensitive sink (integer
//     accumulation, min/max folds, writes keyed by the iteration key,
//     delete) or the collect-then-sort idiom (append into a slice that is
//     sorted later in the same function).
//
// Floating-point accumulation across a map range is flagged even though it
// "only" perturbs low bits: FP addition does not commute, and the NPB
// verification thresholds assume bit-identical replays.
//
// The direct checks see one call site at a time. The taint solver
// (taint.go) closes the laundering hole: a wall-clock read stashed in a
// helper's return value, threaded through a struct field and added to a
// profile counter three calls later, in any package, is reported where it
// meets the counter. Both read one source table (sourceCall), so they can
// never disagree about what a source is.
package determinism

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"hugeomp/internal/lint/analysis"
	"hugeomp/internal/lint/callgraph"
	"hugeomp/internal/lint/interproc"
)

const name = "determinism"

var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc: "forbid wall-clock reads, global math/rand, scheduler queries and order-sensitive map " +
		"iteration in the simulator packages, and track such values through returns, parameters " +
		"and struct fields into profile counters and memo keys (bit-determinism contract)",
	Run: run,
}

// Packages limits reporting to the packages whose determinism the replay
// and audit machinery depends on (taint summaries are computed everywhere,
// so a chain may cross any package). An entry matches a package whose
// import path equals it or ends with "/"+it.
var Packages = []string{
	"internal/cache",
	"internal/machine",
	"internal/tlb",
	"internal/pagetable",
	"internal/omp",
	"internal/profile",
	"internal/stats",
	"internal/check",
	"internal/npb",
	"internal/memo",
}

// SinkTypes is the comma-separated list of named types whose methods are
// determinism sinks (any tainted argument is a violation).
var SinkTypes = "Counters,OSCounters"

// SinkFuncs is the comma-separated list of sink functions, matched as
// "pkg.Func" suffixes of the full name (the memo key functions).
var SinkFuncs = "memo.KeyOf,npb.RunKey"

func run(pass *analysis.Pass) (any, error) {
	g := callgraph.Build(pass)
	cands := callgraph.Candidates(pass.Pkg)
	summaries := interproc.Solve(pass, g, taintAnalysis(pass, cands))
	if !analysis.InScope(Packages, pass.Pkg.Path()) {
		return nil, nil
	}
	analysis.WithStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, n)
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					checkMapRange(pass, n, enclosingBody(stack))
				}
			}
		}
		return true
	})
	reportTaint(pass, cands, g, summaries)
	return nil, nil
}

// --- source table -------------------------------------------------------------

// wallClockFuncs are the time package functions that read the host clock.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// randConstructors build seeded generators and are deterministic given the
// seed; only draws from the package-level generator are sources.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

// schedFuncs observe scheduler or host state that varies run to run (or
// machine to machine).
var schedFuncs = map[string]bool{"NumGoroutine": true, "NumCPU": true, "GOMAXPROCS": true}

// sourceCall reports whether call reads host state. desc names the source
// in taint chains; msg is the finding for a direct call in scope.
func sourceCall(info *types.Info, call *ast.CallExpr) (desc, msg string, ok bool) {
	fn := analysis.Callee(info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", "", false
	}
	if sig, _ := fn.Type().(*types.Signature); sig == nil || sig.Recv() != nil {
		return "", "", false
	}
	name := fn.Name()
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[name] {
			return "time." + name + "() (wall clock)", "wall-clock read time." + name +
				" in a simulator package: simulated time must come from the cost model, not the host clock", true
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[name] {
			q := fn.Pkg().Name() + "." + name
			return q + "() (global math/rand)", "global " + q +
				" in a simulator package: use a seeded *rand.Rand owned by the run so replays are bit-identical", true
		}
	case "runtime":
		if schedFuncs[name] {
			return "runtime." + name + "() (scheduler/host state)", "scheduler/host-state read runtime." + name +
				" in a simulator package: thread counts come from the simulated machine config, not the host", true
		}
	}
	return "", "", false
}

// enclosingBody returns the body of the innermost function (decl or literal)
// on the stack, for locating sort calls that follow a map range.
func enclosingBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncDecl:
			return f.Body
		case *ast.FuncLit:
			return f.Body
		}
	}
	return nil
}

// checkCall flags a direct source call.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	if _, msg, ok := sourceCall(pass.TypesInfo, call); ok {
		pass.Reportf(call.Pos(), "%s", msg)
	}
}

// mapLoop analyses one `for ... range m` over a map for order sensitivity.
type mapLoop struct {
	pass     *analysis.Pass
	rs       *ast.RangeStmt
	funcBody *ast.BlockStmt
	// locals are objects declared inside the loop (including the key and
	// value variables): writes to them have no effect outside an iteration.
	locals map[types.Object]bool
	// appends records `s = append(s, x)` statements whose target s is
	// declared outside the loop; they are deterministic only if s is sorted
	// after the loop (collect-then-sort idiom).
	appends []appendTo
}

type appendTo struct {
	target types.Object
	pos    token.Pos
}

func checkMapRange(pass *analysis.Pass, rs *ast.RangeStmt, funcBody *ast.BlockStmt) {
	ml := &mapLoop{pass: pass, rs: rs, funcBody: funcBody, locals: map[types.Object]bool{}}
	ml.declare(rs.Key)
	ml.declare(rs.Value)
	// Pre-collect every object declared anywhere inside the loop body, so a
	// write to an iteration-scoped variable is never mistaken for a write
	// that survives the loop.
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				ml.locals[obj] = true
			}
		}
		return true
	})
	ml.stmts(rs.Body.List)
	ml.checkAppends()
}

func (ml *mapLoop) declare(e ast.Expr) {
	if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
		if obj := ml.pass.TypesInfo.Defs[id]; obj != nil {
			ml.locals[obj] = true
		}
	}
}

func (ml *mapLoop) report(n ast.Node, format string, args ...any) {
	ml.pass.Reportf(n.Pos(), "map iteration order reaches an order-sensitive sink: %s (sort the keys first, or restructure; see docs/LINTING.md)",
		fmt.Sprintf(format, args...))
}

func (ml *mapLoop) stmts(list []ast.Stmt) {
	for _, s := range list {
		ml.stmt(s)
	}
}

// stmt checks one statement of the loop body for order sensitivity.
func (ml *mapLoop) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		ml.assign(s)
	case *ast.IncDecStmt:
		// x++ / x-- commute when x is an integer.
		if !ml.isInteger(s.X) {
			ml.report(s, "non-integer %s of %s", s.Tok, render(s.X))
		}
	case *ast.DeclStmt:
		gd, _ := s.Decl.(*ast.GenDecl)
		if gd != nil {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						ml.expr(v)
					}
				}
			}
		}
	case *ast.IfStmt:
		ml.ifStmt(s)
	case *ast.SwitchStmt:
		if s.Init != nil {
			ml.stmt(s.Init)
		}
		if s.Tag != nil {
			ml.expr(s.Tag)
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				ml.expr(e)
			}
			ml.stmts(cc.Body)
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			ml.stmt(s.Init)
		}
		for _, c := range s.Body.List {
			ml.stmts(c.(*ast.CaseClause).Body)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			ml.stmt(s.Init)
		}
		if s.Cond != nil {
			ml.expr(s.Cond)
		}
		if s.Post != nil {
			ml.stmt(s.Post)
		}
		ml.stmts(s.Body.List)
	case *ast.RangeStmt:
		ml.declare(s.Key)
		ml.declare(s.Value)
		ml.expr(s.X)
		ml.stmts(s.Body.List)
	case *ast.BlockStmt:
		ml.stmts(s.List)
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if ok && isBuiltin(ml.pass.TypesInfo, call, "delete") {
			for _, a := range call.Args {
				ml.expr(a)
			}
			return // delete(m2, k) commutes across distinct keys
		}
		ml.report(s, "statement with side effects (%s)", render(s.X))
	case *ast.BranchStmt:
		if s.Tok == token.CONTINUE {
			return
		}
		ml.report(s, "%s makes the set of processed entries depend on iteration order", s.Tok)
	case *ast.ReturnStmt:
		ml.report(s, "return inside a map range exits on an order-dependent entry")
	case *ast.EmptyStmt:
	default:
		ml.report(s, "unsupported statement kind %T", s)
	}
}

// ifStmt allows pure conditions over order-insensitive branches, plus the
// min/max fold idiom `if x > acc { acc = x }` (the assigned accumulator must
// itself appear in the comparison).
func (ml *mapLoop) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		ml.stmt(s.Init)
	}
	ml.expr(s.Cond)
	if as, target, ok := singleAssign(s.Body); ok && !ml.isLocalExpr(target) {
		if comparesAgainst(s.Cond, target) && ml.pure(as.Rhs[0]) {
			// min/max fold: order-insensitive by construction.
			if s.Else != nil {
				ml.stmt(s.Else)
			}
			return
		}
	}
	ml.stmts(s.Body.List)
	if s.Else != nil {
		ml.stmt(s.Else)
	}
}

// assign classifies one assignment.
func (ml *mapLoop) assign(s *ast.AssignStmt) {
	for _, rhs := range s.Rhs {
		ml.expr(rhs)
	}
	// Op-assignments: integer accumulation commutes; float/string do not.
	switch s.Tok {
	case token.ASSIGN, token.DEFINE:
	case token.ADD_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN, token.AND_ASSIGN,
		token.SUB_ASSIGN, token.MUL_ASSIGN:
		lhs := s.Lhs[0]
		if ml.isLocalExpr(lhs) {
			return
		}
		if !ml.isInteger(lhs) {
			ml.report(s, "%s on non-integer %s does not commute (float/string accumulation is order-sensitive)", s.Tok, render(lhs))
		}
		return
	default:
		lhs := s.Lhs[0]
		if !ml.isLocalExpr(lhs) {
			ml.report(s, "%s on %s outside the loop", s.Tok, render(lhs))
		}
		return
	}
	for i, lhs := range s.Lhs {
		if ml.isLocalExpr(lhs) {
			continue // writes to iteration-scoped state don't escape
		}
		switch l := lhs.(type) {
		case *ast.IndexExpr:
			// m2[k] = v / s[k] = v: distinct keys target distinct cells.
			ml.expr(l.X)
			ml.expr(l.Index)
			continue
		}
		// `s = append(s, x)` collecting into an outer slice: legal only as
		// the collect-then-sort idiom, judged after the loop.
		if i < len(s.Rhs) {
			if call, ok := s.Rhs[i].(*ast.CallExpr); ok && isBuiltin(ml.pass.TypesInfo, call, "append") {
				if obj := rootObj(ml.pass.TypesInfo, lhs); obj != nil && sameObj(ml.pass.TypesInfo, call.Args[0], obj) {
					ml.appends = append(ml.appends, appendTo{target: obj, pos: s.Pos()})
					continue
				}
			}
		}
		ml.report(s, "assignment to %s outside the loop (only op-assign accumulation, keyed writes, or append-then-sort are order-insensitive)", render(lhs))
	}
}

// checkAppends verifies the collect-then-sort idiom: every slice appended to
// from inside the loop must be passed to a sort.* or slices.Sort* call after
// the loop, in the same function.
func (ml *mapLoop) checkAppends() {
	for _, ap := range ml.appends {
		if !ml.sortedAfterLoop(ap.target) {
			ml.pass.Reportf(ap.pos,
				"map iteration appends to %q without sorting it afterwards: the slice order is the map order (sort it after the loop, or iterate sorted keys)",
				ap.target.Name())
		}
	}
}

func (ml *mapLoop) sortedAfterLoop(obj types.Object) bool {
	if ml.funcBody == nil {
		return false
	}
	found := false
	ast.Inspect(ml.funcBody, func(n ast.Node) bool {
		if found || n == nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < ml.rs.End() {
			return true
		}
		fn := analysis.Callee(ml.pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		pkg := fn.Pkg().Path()
		if pkg != "sort" && pkg != "slices" {
			return true
		}
		for _, a := range call.Args {
			if sameObj(ml.pass.TypesInfo, a, obj) {
				found = true
			}
		}
		return true
	})
	return found
}

// expr flags order-sensitive sub-expressions: any call that is not a pure
// builtin or conversion may observe or effect state in iteration order.
func (ml *mapLoop) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if ml.pureCall(n) {
				return true
			}
			ml.report(n, "call %s inside a map range (calls may observe iteration order)", render(n.Fun))
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				ml.report(n, "channel receive inside a map range")
				return false
			}
		case *ast.FuncLit:
			return false // a declaration alone has no effect
		}
		return true
	})
}

// pure reports whether e contains no impure calls.
func (ml *mapLoop) pure(e ast.Expr) bool {
	ok := true
	ast.Inspect(e, func(n ast.Node) bool {
		if call, isCall := n.(*ast.CallExpr); isCall && !ml.pureCall(call) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

var pureBuiltins = map[string]bool{
	"len": true, "cap": true, "min": true, "max": true,
	"make": true, "new": true, "append": true, "copy": true, "delete": true,
}

// pureCall accepts pure builtins and type conversions.
func (ml *mapLoop) pureCall(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := ml.pass.TypesInfo.Uses[fun].(*types.Builtin); ok {
			return pureBuiltins[obj.Name()]
		}
	}
	// Type conversion?
	if tv, ok := ml.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return true
	}
	return false
}

// isLocalExpr reports whether the root object of an lvalue is loop-local.
func (ml *mapLoop) isLocalExpr(e ast.Expr) bool {
	obj := rootObj(ml.pass.TypesInfo, e)
	return obj != nil && ml.locals[obj]
}

func (ml *mapLoop) isInteger(e ast.Expr) bool {
	t := ml.pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// singleAssign matches a block containing exactly one plain assignment and
// returns it with its target.
func singleAssign(b *ast.BlockStmt) (*ast.AssignStmt, ast.Expr, bool) {
	if len(b.List) != 1 {
		return nil, nil, false
	}
	as, ok := b.List[0].(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil, nil, false
	}
	return as, as.Lhs[0], true
}

// comparesAgainst reports whether cond contains an ordered comparison with
// target as one operand (textually).
func comparesAgainst(cond ast.Expr, target ast.Expr) bool {
	want := render(target)
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if be, ok := n.(*ast.BinaryExpr); ok {
			switch be.Op {
			case token.LSS, token.GTR, token.LEQ, token.GEQ:
				if render(be.X) == want || render(be.Y) == want {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// render prints a small expression for diagnostics and structural equality.
func render(e ast.Expr) string {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return render(v.X) + "." + v.Sel.Name
	case *ast.IndexExpr:
		return render(v.X) + "[" + render(v.Index) + "]"
	case *ast.StarExpr:
		return "*" + render(v.X)
	case *ast.CallExpr:
		return render(v.Fun) + "(...)"
	case *ast.BasicLit:
		return v.Value
	case *ast.BinaryExpr:
		return render(v.X) + v.Op.String() + render(v.Y)
	case *ast.UnaryExpr:
		return v.Op.String() + render(v.X)
	default:
		return fmt.Sprintf("%T", e)
	}
}

// sameObj reports whether expr is a bare identifier denoting obj.
func sameObj(info *types.Info, e ast.Expr, obj types.Object) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && info.ObjectOf(id) == obj
}
