// Package lockorder infers held-lock sets across call edges and checks the
// simulator's documented lock hierarchy (Order) interprocedurally, in every
// package:
//
//   - Every function gets a summary of the lock classes it may acquire
//     (directly or through calls), with a representative call chain per
//     class. Summaries are solved bottom-up over the call-graph SCCs and
//     flow across package boundaries as facts, so holding a mutex three
//     calls above another acquisition is seen exactly like holding it on
//     the same line.
//   - Acquiring class B while class A is held is the nesting A → B. It is
//     legal only when both classes are ranked and A ranks strictly outside
//     B. Every other nesting is reported with the full call chain from the
//     holding function down to the offending Lock call: a rank inversion,
//     two locks of one rank level at once (which also catches
//     self-deadlock through recursion), or a nesting with an end outside
//     the hierarchy. Since every nesting is ranked, the acquisition graph
//     is a sub-order of Order and can have no cycle.
//
// The lock identity model matches the simulator's: a lock's class is
// "OwnerType.field" for a mutex stored in a named struct (Context.shootMu,
// Manager.mu), and rank lookup falls back from the qualified name to the
// bare owner type, so Order may rank whole types or single fields.
//
// Held-set tracking inside a function is a source-order walk (exactly
// enough for the simulator's straight-line locking idioms); function
// literals are analyzed with an empty held set (they may run on another
// goroutine) but their acquisitions fold into the enclosing function's
// summary, which is the conservative direction. Calls through
// function-typed values are invisible to the call graph, so a lock taken
// behind one is not seen by the caller: thp's Shootdown hook, called under
// Manager.mu, takes Context.shootMu, and that nesting goes unchecked
// (docs/LINTING.md, "What the static contract cannot see").
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"sort"
	"strings"

	"hugeomp/internal/lint/analysis"
	"hugeomp/internal/lint/callgraph"
	"hugeomp/internal/lint/interproc"
)

const name = "lockorder"

var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc: "interprocedural lock-order checking: infer acquired-lock summaries over the call graph and " +
		"report every nested acquisition that the documented hierarchy does not rank outer-to-inner, " +
		"with its full call chain",
	Run: run,
}

// Order is the documented lock hierarchy, outermost first: "<" separates
// rank levels, "," separates classes sharing a level (which never nest). A
// class is either a qualified mutex field ("Context.shootMu") or a bare
// owner type ("Manager", matching any mutex field it owns). The THP manager,
// the hugetlbfs file system and the SCASH space call into the page table,
// physical memory and the space's allocator under their locks.
var Order = "Manager, FS, Space < Allocator, Table, PhysMem"

// summary is the per-function fact: the lock classes the function may
// acquire during its execution, each with one representative chain from the
// function's entry to the Lock call (entries are "pos: description").
type summary map[string][]string

func run(pass *analysis.Pass) (any, error) {
	ranks := parseOrder(Order)
	g := callgraph.Build(pass)
	cands := callgraph.Candidates(pass.Pkg)

	// Transfer may walk a function more than once; report each nesting site
	// once.
	seen := map[string]bool{}
	nest := func(from, to string, at token.Pos, chain []string) {
		key := from + "\x00" + to + "\x00" + pass.Fset.Position(at).String()
		if !seen[key] {
			seen[key] = true
			checkNesting(pass, ranks, from, to, at, chain)
		}
	}
	interproc.Solve(pass, g, &interproc.Analysis[summary]{
		Facts:  name,
		Bottom: func(*types.Func) summary { return nil },
		Transfer: func(n *callgraph.Node, lookup func(*types.Func) summary) summary {
			w := &walker{pass: pass, cands: cands, lookup: lookup, nest: nest, sum: summary{}}
			w.block(n.Decl.Body.List)
			if len(w.sum) == 0 {
				return nil
			}
			return w.sum
		},
		Equal: func(a, b summary) bool { return maps.EqualFunc(a, b, slices.Equal[[]string]) },
	})
	return nil, nil
}

// checkNesting reports the nesting from → to unless Order ranks from
// strictly outside to.
func checkNesting(pass *analysis.Pass, ranks map[string]int, from, to string, at token.Pos, chain []string) {
	rf, fromRanked := rankOf(ranks, from)
	rt, toRanked := rankOf(ranks, to)
	var msg string
	switch {
	case !fromRanked || !toRanked:
		outside := from
		if fromRanked {
			outside = to
		}
		msg = fmt.Sprintf(
			"lock %s acquired while %s is held, but %s is outside the documented hierarchy %q: rank it in the order or stop nesting",
			to, from, outside, Order)
	case rf > rt:
		msg = fmt.Sprintf(
			"lock order violation: %s acquired while %s is held, against the documented order %q",
			to, from, Order)
	case rf == rt && classType(from) == classType(to):
		msg = fmt.Sprintf(
			"two %s-class locks held at once (%s acquired while %s is held): the protocol takes at most one lock per class",
			classType(to), to, from)
	case rf == rt:
		msg = fmt.Sprintf(
			"%s acquired while %s is held: they share a level of the documented order %q, and locks of one level never nest",
			to, from, Order)
	default:
		return
	}
	if len(chain) > 1 {
		msg += " (acquisition path: " + strings.Join(chain, " -> ") + ")"
	}
	pass.Report(analysis.Diagnostic{Pos: at, Message: msg, Trace: chain})
}

// --- rank parsing ----------------------------------------------------------

func parseOrder(spec string) map[string]int {
	ranks := make(map[string]int)
	for rank, level := range strings.Split(spec, "<") {
		for _, name := range strings.Split(level, ",") {
			if name = strings.TrimSpace(name); name != "" {
				ranks[name] = rank
			}
		}
	}
	return ranks
}

// rankOf resolves a class ("Type.field") against Order entries: exact
// qualified match first, then the bare owner type.
func rankOf(ranks map[string]int, class string) (int, bool) {
	if r, ok := ranks[class]; ok {
		return r, true
	}
	if r, ok := ranks[classType(class)]; ok {
		return r, true
	}
	return -1, false
}

func classType(class string) string {
	if i := strings.IndexByte(class, '.'); i >= 0 {
		return class[:i]
	}
	return class
}

// --- per-function walk -----------------------------------------------------

type held struct {
	class string
	expr  string
}

type walker struct {
	pass   *analysis.Pass
	cands  []types.Type
	lookup func(*types.Func) summary
	nest   func(from, to string, at token.Pos, chain []string)
	sum    summary
	held   []held
}

func (w *walker) block(stmts []ast.Stmt) {
	for _, s := range stmts {
		w.stmt(s)
	}
}

func (w *walker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.DeferStmt:
		if _, kind := w.mutexCall(s.Call); kind == "unlock" {
			return // the lock is held to function end; the held set keeps it
		}
		w.funcLits(s.Call)
	case *ast.GoStmt:
		w.funcLits(s.Call)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.expr(s.Cond)
		w.block(s.Body.List)
		if s.Else != nil {
			w.stmt(s.Else)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Cond != nil {
			w.expr(s.Cond)
		}
		w.block(s.Body.List)
		if s.Post != nil {
			w.stmt(s.Post)
		}
	case *ast.RangeStmt:
		w.expr(s.X)
		w.block(s.Body.List)
	case *ast.BlockStmt:
		w.block(s.List)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Tag != nil {
			w.expr(s.Tag)
		}
		for _, c := range s.Body.List {
			w.block(c.(*ast.CaseClause).Body)
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			w.block(c.(*ast.CaseClause).Body)
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			w.block(c.(*ast.CommClause).Body)
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v)
					}
				}
			}
		}
	}
}

// expr walks calls (and function literals) inside an expression in source
// order.
func (w *walker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.lit(n)
			return false
		case *ast.CallExpr:
			w.call(n)
		}
		return true
	})
}

// lit analyzes a function literal with an empty held set (it may run later
// or elsewhere) but folds its acquisitions into the enclosing summary.
func (w *walker) lit(n *ast.FuncLit) {
	sub := &walker{pass: w.pass, cands: w.cands, lookup: w.lookup, nest: w.nest, sum: w.sum}
	sub.block(n.Body.List)
}

func (w *walker) funcLits(call *ast.CallExpr) {
	ast.Inspect(call, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			w.lit(lit)
			return false
		}
		return true
	})
}

// call handles lock transitions and propagates callee summaries into
// nestings and the function's own summary.
func (w *walker) call(call *ast.CallExpr) {
	if mu, kind := w.mutexCall(call); kind != "" {
		switch kind {
		case "lock":
			w.acquire(call, mu)
		case "unlock":
			w.release(mu)
		}
		return
	}
	targets := callgraph.ResolveCall(w.pass, w.cands, call)
	for _, callee := range targets {
		s := w.lookup(callee)
		classes := make([]string, 0, len(s))
		for c := range s {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		for _, c := range classes {
			chain := append([]string{w.frame(call, "call "+callee.FullName())}, s[c]...)
			for _, h := range w.held {
				w.nest(h.class, c, call.Pos(), chain)
			}
			w.record(c, chain)
		}
	}
}

func (w *walker) acquire(call *ast.CallExpr, mu mutexRef) {
	chain := []string{w.frame(call, mu.expr+".Lock()")}
	for _, h := range w.held {
		w.nest(h.class, mu.class, call.Pos(), chain)
	}
	w.held = append(w.held, held{class: mu.class, expr: mu.expr})
	w.record(mu.class, chain)
}

func (w *walker) release(mu mutexRef) {
	for i := len(w.held) - 1; i >= 0; i-- {
		if w.held[i].expr == mu.expr {
			w.held = append(w.held[:i], w.held[i+1:]...)
			return
		}
	}
}

// record notes that the function may acquire class c (first chain wins, so
// the representative stays stable across fixpoint rounds).
func (w *walker) record(c string, chain []string) {
	if _, ok := w.sum[c]; !ok {
		w.sum[c] = chain
	}
}

func (w *walker) frame(at ast.Node, what string) string {
	return w.pass.Fset.Position(at.Pos()).String() + ": " + what
}

// --- mutex recognition -----------------------------------------------------

type mutexRef struct {
	expr  string // rendered lock expression, e.g. "sh.mu"
	class string // "OwnerType.field", or the rendered expr for bare mutexes
}

// mutexCall recognises m.Lock/RLock ("lock") and m.Unlock/RUnlock
// ("unlock") on sync.Mutex/RWMutex values.
func (w *walker) mutexCall(call *ast.CallExpr) (mutexRef, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return mutexRef{}, ""
	}
	fn, _ := w.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return mutexRef{}, ""
	}
	recv := analysis.TypeName(recvType(fn))
	if recv != "Mutex" && recv != "RWMutex" {
		return mutexRef{}, ""
	}
	var kind string
	switch fn.Name() {
	case "Lock", "RLock":
		kind = "lock"
	case "Unlock", "RUnlock":
		kind = "unlock"
	default:
		return mutexRef{}, ""
	}
	expr := renderExpr(sel.X)
	return mutexRef{expr: expr, class: w.classOf(sel.X, expr)}, kind
}

// classOf names a lock's class: "OwnerType.field" for a mutex stored in a
// named struct, else the rendered expression (bare locals/parameters).
func (w *walker) classOf(mu ast.Expr, rendered string) string {
	if sel, ok := ast.Unparen(mu).(*ast.SelectorExpr); ok {
		if name := analysis.TypeName(w.pass.TypesInfo.TypeOf(sel.X)); name != "" {
			return name + "." + sel.Sel.Name
		}
	}
	return rendered
}

func recvType(fn *types.Func) types.Type {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

func renderExpr(e ast.Expr) string {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return renderExpr(v.X) + "." + v.Sel.Name
	case *ast.IndexExpr:
		return renderExpr(v.X) + "[" + renderExpr(v.Index) + "]"
	case *ast.StarExpr:
		return "*" + renderExpr(v.X)
	case *ast.CallExpr:
		return renderExpr(v.Fun) + "()"
	case *ast.BasicLit:
		return v.Value
	default:
		return "?"
	}
}
