// Package lockorder infers held-lock sets across call edges and checks the
// simulator's documented lock hierarchy interprocedurally:
//
//   - Every function gets a summary of the lock classes it may acquire
//     (directly or through calls), with a representative call chain per
//     class. Summaries are solved bottom-up over the call-graph SCCs and
//     flow across package boundaries as facts, so holding a mutex three
//     calls above another acquisition is seen exactly like holding it on
//     the same line.
//   - Acquiring class B while class A is held records the acquisition-graph
//     edge A → B. An edge that runs against the documented rank order
//     (Order, outermost first) is a rank inversion; an edge between two
//     locks of the same class is a same-class double acquisition; an edge
//     from a lock outside the hierarchy into a ranked lock hides the
//     ordering from review. All three are reported with the full call chain
//     from the holding function down to the offending Lock call.
//   - Edges are also exported per package and unioned across the module, so
//     a cycle assembled from acquisitions in different packages (A → B
//     here, B → A there) is detected even when every package looks locally
//     consistent.
//   - Functions marked //simlint:hotpath must not `defer mu.Unlock()`:
//     defer costs tens of nanoseconds per call on the per-access path, which
//     is why the hot functions unlock explicitly. Unlike the rank rules,
//     which report only in Packages, this one reports in every package.
//
// The lock identity model matches the simulator's: a lock's class is
// "OwnerType.field" for a mutex stored in a named struct (Context.shootMu,
// Snapshot.mu), and rank lookup falls back from the qualified name to the
// bare owner type, so Order may rank whole types or single fields.
//
// Held-set tracking inside a function is a source-order walk (exactly
// enough for the simulator's straight-line locking idioms); function
// literals are analyzed with an empty held set (they may run on another
// goroutine) but their acquisitions fold into the enclosing function's
// summary, which is the conservative direction. A literal inside a hotpath
// function is not itself hot: it is typically a slow-path closure handed
// elsewhere, so its deferred unlocks are allowed. Calls through
// function-typed values are invisible to the graph; the simulator's locking
// never passes lock-taking closures across packages.
package lockorder

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"hugeomp/internal/lint/analysis"
	"hugeomp/internal/lint/callgraph"
	"hugeomp/internal/lint/directive"
	"hugeomp/internal/lint/interproc"
)

const name = "lockorder"

var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc: "interprocedural lock-order checking: infer acquired-lock summaries over the call graph, " +
		"report rank inversions, same-class double acquisitions, unranked locks held across ranked " +
		"acquisitions, and cross-package acquisition cycles, each with its full call chain; " +
		"forbid deferred mutex unlocks in //simlint:hotpath functions",
	Run: run,
}

// Order is the documented lock hierarchy, outermost first: "<" separates
// rank levels, "," separates classes sharing a level. A class is either a
// qualified mutex field ("Context.shootMu") or a bare owner type
// ("Snapshot", matching any mutex field it owns). Every context owns its
// TLBs and caches, so the simulator's one ranked lock is Snapshot's (fork
// template freeze): it holds its mutex while forking the system, never the
// reverse. The driver exposes it as -lockorder.order.
var Order = "Snapshot"

// Packages limits *reporting* to the packages that participate in the
// simulator's lock hierarchy (summaries and edges are still computed
// everywhere so chains can cross any boundary). Same matching rules as
// determinism.Packages. The driver exposes it as -lockorder.packages.
var Packages = []string{
	"internal/cache",
	"internal/machine",
	"internal/tlb",
	"internal/pagetable",
	"internal/omp",
	"internal/npb",
}

func inScope(path string) bool {
	for _, p := range Packages {
		if path == p || strings.HasSuffix(path, "/"+p) {
			return true
		}
	}
	return false
}

// Summary is the per-function fact: the lock classes the function may
// acquire during its execution, each with one representative chain from the
// function's entry to the Lock call (entries are "pos: description").
type Summary struct {
	Acquires map[string][]string `json:"acquires,omitempty"`
}

func equalSummary(a, b Summary) bool {
	if len(a.Acquires) != len(b.Acquires) {
		return false
	}
	for k, av := range a.Acquires {
		bv, ok := b.Acquires[k]
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if av[i] != bv[i] {
				return false
			}
		}
	}
	return true
}

// factEdge is one acquisition-graph edge as exported in the per-package
// "edges/<path>" fact.
type factEdge struct {
	From  string   `json:"from"`
	To    string   `json:"to"`
	Pos   string   `json:"pos"`
	Chain []string `json:"chain,omitempty"`
}

// localEdge carries the token.Pos needed to report at the site.
type localEdge struct {
	factEdge
	at token.Pos
}

func run(pass *analysis.Pass) (any, error) {
	ranks := parseOrder(Order)
	g := callgraph.Build(pass)
	cands := callgraph.Candidates(pass.Pkg)

	var edges []localEdge
	seenEdge := map[string]bool{}
	addEdge := func(from, to string, at token.Pos, chain []string) {
		pos := pass.Fset.Position(at).String()
		key := from + "\x00" + to + "\x00" + pos
		if seenEdge[key] {
			return
		}
		seenEdge[key] = true
		edges = append(edges, localEdge{factEdge{From: from, To: to, Pos: pos, Chain: chain}, at})
	}
	// Transfer may walk a function more than once; key by position.
	hotDefers := map[token.Pos]string{}

	an := &interproc.Analysis[Summary]{
		Facts:  name,
		Bottom: func(*types.Func) Summary { return Summary{} },
		Transfer: func(n *callgraph.Node, lookup func(*types.Func) Summary) Summary {
			w := &walker{
				pass:    pass,
				cands:   cands,
				lookup:  lookup,
				addEdge: addEdge,
				sum:     Summary{Acquires: map[string][]string{}},
			}
			if directive.Has(directive.Func(n.Decl), "hotpath") {
				w.hotDefers = hotDefers
			}
			w.block(n.Decl.Body.List)
			if len(w.sum.Acquires) == 0 {
				return Summary{}
			}
			return w.sum
		},
		Equal: equalSummary,
	}
	interproc.Solve(pass, g, an)
	reportHotDefers(pass, hotDefers)

	if !inScope(pass.Pkg.Path()) {
		// Out-of-scope packages contribute summaries and edges (exported
		// below) but do not report.
		exportEdges(pass, edges)
		return nil, nil
	}

	for _, e := range edges {
		checkEdge(pass, ranks, e)
	}
	checkCycles(pass, ranks, edges)
	exportEdges(pass, edges)
	return nil, nil
}

func exportEdges(pass *analysis.Pass, edges []localEdge) {
	if len(edges) == 0 {
		return
	}
	out := make([]factEdge, len(edges))
	for i, e := range edges {
		out[i] = e.factEdge
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		if out[i].To != out[j].To {
			return out[i].To < out[j].To
		}
		return out[i].Pos < out[j].Pos
	})
	pass.Facts.Set(name, "edges/"+pass.Pkg.Path(), out)
}

// reportHotDefers reports each deferred unlock found in a hotpath function,
// in position order.
func reportHotDefers(pass *analysis.Pass, hotDefers map[token.Pos]string) {
	at := make([]token.Pos, 0, len(hotDefers))
	for pos := range hotDefers {
		at = append(at, pos)
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	for _, pos := range at {
		pass.Reportf(pos,
			"defer %s() in a //simlint:hotpath function: hot-path functions unlock explicitly (defer costs on every simulated access)", hotDefers[pos])
	}
}

// checkEdge applies the rank rules to one locally observed edge.
func checkEdge(pass *analysis.Pass, ranks map[string]int, e localEdge) {
	rf, fromRanked := rankOf(ranks, e.From)
	rt, toRanked := rankOf(ranks, e.To)
	switch {
	case fromRanked && toRanked && rf > rt:
		report(pass, e, fmt.Sprintf(
			"lock order violation: %s acquired while %s is held, against the documented order %q",
			e.To, e.From, Order))
	case fromRanked && toRanked && rf == rt:
		report(pass, e, fmt.Sprintf(
			"two %s-class locks held at once (%s acquired while %s is held): the protocol takes at most one lock per class",
			classType(e.To), e.To, e.From))
	case !fromRanked && toRanked:
		report(pass, e, fmt.Sprintf(
			"lock %s (outside the documented hierarchy %q) held while acquiring ranked lock %s: rank it in the order or restructure so the ranked lock is not nested under it",
			e.From, Order, e.To))
	}
}

// checkCycles unions this package's edges with every other package's
// exported edges and reports acquisition cycles that rank checking cannot
// see (at least one unranked class). Only cycles through a local edge are
// reported here — the package owning the other half reports its own side.
func checkCycles(pass *analysis.Pass, ranks map[string]int, local []localEdge) {
	adj := map[string]map[string][]string{} // from -> to -> chain
	add := func(e factEdge) {
		m := adj[e.From]
		if m == nil {
			m = map[string][]string{}
			adj[e.From] = m
		}
		if _, ok := m[e.To]; !ok {
			m[e.To] = e.Chain
		}
	}
	pass.Facts.Range(name, func(name string, raw json.RawMessage) {
		if !strings.HasPrefix(name, "edges/") || name == "edges/"+pass.Pkg.Path() {
			return
		}
		var es []factEdge
		if json.Unmarshal(raw, &es) == nil {
			for _, e := range es {
				add(e)
			}
		}
	})
	for _, e := range local {
		add(e.factEdge)
	}

	reported := map[string]bool{}
	for _, e := range local {
		_, fromRanked := rankOf(ranks, e.From)
		_, toRanked := rankOf(ranks, e.To)
		if fromRanked && toRanked {
			continue // rank checking already covers ranked-only cycles
		}
		if path := findPath(adj, e.To, e.From); path != nil {
			// path is [To, ..., From]; the cycle's node list starts at From
			// and must not repeat it, so canonicalization dedupes the same
			// cycle found from any of its edges.
			cyc := append([]string{e.From}, path[:len(path)-1]...)
			key := canonicalCycle(cyc)
			if reported[key] {
				continue
			}
			reported[key] = true
			report(pass, e, fmt.Sprintf(
				"lock acquisition cycle %s -> %s: these locks are taken in conflicting orders across the module (deadlock potential)",
				strings.Join(cyc, " -> "), cyc[0]))
		}
	}
}

// findPath returns a node path from -> ... -> to in adj, or nil.
func findPath(adj map[string]map[string][]string, from, to string) []string {
	seen := map[string]bool{}
	var dfs func(n string, path []string) []string
	dfs = func(n string, path []string) []string {
		if n == to {
			return append(path, n)
		}
		if seen[n] {
			return nil
		}
		seen[n] = true
		next := make([]string, 0, len(adj[n]))
		for m := range adj[n] {
			next = append(next, m)
		}
		sort.Strings(next)
		for _, m := range next {
			if p := dfs(m, append(path, n)); p != nil {
				return p
			}
		}
		return nil
	}
	return dfs(from, nil)
}

// canonicalCycle rotates a cycle's node list to start at its smallest
// element so the same cycle dedupes regardless of entry point.
func canonicalCycle(nodes []string) string {
	if len(nodes) == 0 {
		return ""
	}
	min := 0
	for i, n := range nodes {
		if n < nodes[min] {
			min = i
		}
	}
	rot := append(append([]string{}, nodes[min:]...), nodes[:min]...)
	return strings.Join(rot, "->")
}

func report(pass *analysis.Pass, e localEdge, msg string) {
	pass.Report(analysis.Diagnostic{
		Pos:     e.at,
		Message: msg + chainSuffix(e.Chain),
		Trace:   e.Chain,
	})
}

// chainSuffix renders an acquisition chain for the plain-text message; the
// structured trace rides separately on the diagnostic.
func chainSuffix(chain []string) string {
	if len(chain) <= 1 {
		return ""
	}
	return " (acquisition path: " + strings.Join(chain, " -> ") + ")"
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
	chain []string // chain of the acquisition (for edges it participates in)
}

type walker struct {
	pass    *analysis.Pass
	cands   []types.Type
	lookup  func(*types.Func) Summary
	addEdge func(from, to string, at token.Pos, chain []string)
	sum     Summary
	held    []held
	// hotDefers, set only for the body of a //simlint:hotpath function
	// (never for its literals), collects each `defer mu.Unlock()`.
	hotDefers map[token.Pos]string
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
			// The lock is held to function end; the held set keeps it.
			if w.hotDefers != nil {
				w.hotDefers[s.Pos()] = renderExpr(s.Call.Fun)
			}
			return
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
	sub := &walker{pass: w.pass, cands: w.cands, lookup: w.lookup, addEdge: w.addEdge, sum: w.sum}
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

// call handles lock transitions and propagates callee summaries into edges
// and the function's own summary.
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
	for _, t := range targets {
		s := w.lookup(t.Fn)
		if len(s.Acquires) == 0 {
			continue
		}
		classes := make([]string, 0, len(s.Acquires))
		for c := range s.Acquires {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		for _, c := range classes {
			chain := append([]string{w.frame(call, "call "+t.Fn.FullName())}, s.Acquires[c]...)
			for _, h := range w.held {
				w.addEdge(h.class, c, call.Pos(), chain)
			}
			w.record(c, chain)
		}
	}
}

func (w *walker) acquire(call *ast.CallExpr, mu mutexRef) {
	chain := []string{w.frame(call, mu.expr+".Lock()")}
	for _, h := range w.held {
		w.addEdge(h.class, mu.class, call.Pos(), chain)
	}
	w.held = append(w.held, held{class: mu.class, expr: mu.expr, chain: chain})
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
	if w.sum.Acquires == nil {
		w.sum.Acquires = map[string][]string{}
	}
	if _, ok := w.sum.Acquires[c]; !ok {
		w.sum.Acquires[c] = chain
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
