package determinism

// The interprocedural half of the analyzer: flow-insensitive,
// object-granular taint.
//
//   - Sources are the calls of sourceCall plus map-iteration key/value
//     variables (iteration order is randomized per run).
//   - Taint propagates through assignments, struct fields and composite
//     literals, arithmetic, and calls: each function's summary records
//     whether its results carry source taint (ret, with the chain), which
//     parameters its results derive from (retParams), and which parameters
//     reach a sink inside it (sinks). Summaries are solved bottom-up over
//     call-graph SCCs and flow across packages as facts. Externals without
//     summaries conservatively pass argument taint to their results.
//   - Sinks are the determinism-bearing outputs: methods on SinkTypes and
//     the SinkFuncs. Taint meeting a sink is reported with the full
//     source→sink path.
//
// context.Context values are sanitized by type: the service layer's deadline
// contexts are wall-clock-bearing by design and never feed simulation
// results, so taint does not flow through them.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"

	"hugeomp/internal/lint/analysis"
	"hugeomp/internal/lint/callgraph"
	"hugeomp/internal/lint/interproc"
)

// A paramSink records that a parameter value reaches a determinism sink
// inside the function (or below it), so callers passing tainted arguments
// are reported at their own call sites with the stitched chain.
type paramSink struct {
	param int    // 0 = receiver for methods, then positional
	sink  string // the sink's description
	chain []string
}

// summary is the per-function fact.
type summary struct {
	// ret is non-nil when a result may carry source taint independent of the
	// arguments; it holds the source-first chain.
	ret []string
	// retParams is the bitmask of parameters the results may derive from.
	retParams uint64
	// sinks lists parameters that reach a sink inside the function.
	sinks []paramSink
}

// taint is the abstract value of one expression or variable.
type taint struct {
	chain  []string // source-first path, nil when no source taint
	params uint64   // parameter bits the value may derive from
}

func union(a, b taint) taint {
	out := taint{chain: a.chain, params: a.params | b.params}
	if out.chain == nil {
		out.chain = b.chain
	}
	return out
}

func taintAnalysis(pass *analysis.Pass, cands []types.Type) *interproc.Analysis[summary] {
	return &interproc.Analysis[summary]{
		Facts:  name,
		Bottom: func(*types.Func) summary { return summary{} },
		// Unknown externals conservatively launder argument taint into their
		// results (fmt.Sprintf, strconv, time.Time methods, ...).
		External: func(*types.Func) (summary, bool) {
			return summary{retParams: ^uint64(0)}, true
		},
		Transfer: func(n *callgraph.Node, lookup func(*types.Func) summary) summary {
			w := newWalker(pass, cands, lookup, n)
			w.solveEnv(n.Decl.Body)
			return w.collect(n.Decl.Body, nil)
		},
		Equal: func(a, b summary) bool { return reflect.DeepEqual(a, b) },
	}
}

// reportTaint re-walks every function against the solved summaries and
// reports each source→sink path once.
func reportTaint(pass *analysis.Pass, cands []types.Type, g *callgraph.Graph, summaries func(*types.Func) summary) {
	seen := map[string]bool{}
	emit := func(pos token.Pos, sink string, chain []string) {
		key := pass.Fset.Position(pos).String() + "\x00" + sink + "\x00" + strings.Join(chain, "|")
		if seen[key] {
			return
		}
		seen[key] = true
		pass.Report(analysis.Diagnostic{
			Pos: pos,
			Message: fmt.Sprintf(
				"non-deterministic value flows into %s: the bit-determinism contract requires identical replays (taint path: %s)",
				sink, strings.Join(chain, " -> ")),
			Trace: chain,
		})
	}
	for _, n := range g.Funcs() {
		w := newWalker(pass, cands, summaries, n)
		w.solveEnv(n.Decl.Body)
		w.collect(n.Decl.Body, emit)
	}
}

// --- per-function walk ------------------------------------------------------

type walker struct {
	pass    *analysis.Pass
	cands   []types.Type
	lookup  func(*types.Func) summary
	env     map[types.Object]taint
	nparams int
	results []types.Object // named result objects, for bare returns
	ret     taint
	sinks   map[int]paramSink
	// changedEnv is set by set() when the environment grows (fixpoint test).
	changedEnv bool
}

func newWalker(pass *analysis.Pass, cands []types.Type, lookup func(*types.Func) summary, n *callgraph.Node) *walker {
	w := &walker{pass: pass, cands: cands, lookup: lookup,
		env: map[types.Object]taint{}, sinks: map[int]paramSink{}}
	sig, _ := n.Fn.Type().(*types.Signature)
	if sig == nil {
		return w
	}
	bit := 0
	seed := func(v *types.Var) {
		if v != nil && bit < 63 {
			w.env[v] = taint{params: 1 << uint(bit)}
		}
		bit++
	}
	if sig.Recv() != nil {
		seed(sig.Recv())
	}
	for i := 0; i < sig.Params().Len(); i++ {
		seed(sig.Params().At(i))
	}
	w.nparams = bit
	for i := 0; i < sig.Results().Len(); i++ {
		if v := sig.Results().At(i); v.Name() != "" {
			w.results = append(w.results, v)
		}
	}
	return w
}

// solveEnv runs the intra-function environment to a fixpoint: assignments,
// range statements and declarations may feed taint into variables that
// earlier statements already read (loops), so iterate until stable.
func (w *walker) solveEnv(body *ast.BlockStmt) {
	for round := 0; round < 10; round++ {
		w.changedEnv = false
		ast.Inspect(body, func(nd ast.Node) bool {
			switch nd := nd.(type) {
			case *ast.AssignStmt:
				w.assign(nd)
			case *ast.RangeStmt:
				w.rangeStmt(nd)
			case *ast.ValueSpec:
				w.valueSpec(nd)
			}
			return true
		})
		if !w.changedEnv {
			return
		}
	}
}

// set unions t into the environment entry of e's root object.
func (w *walker) set(e ast.Expr, t taint) {
	if t.chain == nil && t.params == 0 {
		return
	}
	obj := rootObj(w.pass.TypesInfo, e)
	if obj == nil {
		return
	}
	old := w.env[obj]
	next := union(old, t)
	if next.params != old.params || (old.chain == nil && next.chain != nil) {
		w.env[obj] = next
		w.changedEnv = true
	}
}

func (w *walker) assign(s *ast.AssignStmt) {
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		t := w.eval(s.Rhs[0]) // multi-value call: all targets get its taint
		for _, lhs := range s.Lhs {
			w.set(lhs, t)
		}
		return
	}
	for i, lhs := range s.Lhs {
		if i >= len(s.Rhs) {
			continue
		}
		t := w.eval(s.Rhs[i])
		// Rebuild idiom: `m2[k] = v` where both the key and the value carry
		// only iteration-order taint copies every entry of a map under its
		// own key — the resulting container is the same whatever the order,
		// so the order taint stops here (matching the map-range check's
		// keyed-write allowance). Restricted to plain assignment: op-assigns
		// accumulate, and accumulation may not commute.
		if s.Tok == token.ASSIGN {
			if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok &&
				mapOrderOnly(w.eval(ix.Index)) && mapOrderOnly(t) {
				t = taint{params: t.params}
			}
		}
		w.set(lhs, t)
	}
}

// mapOrderOnly reports whether t's source chain is exactly a map-iteration
// source (no wall clock, rand or scheduler taint mixed in via the chain).
func mapOrderOnly(t taint) bool {
	return t.chain != nil && strings.HasSuffix(t.chain[0], "map iteration order")
}

func (w *walker) valueSpec(vs *ast.ValueSpec) {
	if len(vs.Values) == 1 && len(vs.Names) > 1 {
		t := w.eval(vs.Values[0])
		for _, id := range vs.Names {
			w.set(id, t)
		}
		return
	}
	for i, id := range vs.Names {
		if i < len(vs.Values) {
			w.set(id, w.eval(vs.Values[i]))
		}
	}
}

func (w *walker) rangeStmt(rs *ast.RangeStmt) {
	t := w.eval(rs.X)
	if xt := w.pass.TypesInfo.TypeOf(rs.X); xt != nil {
		if _, isMap := xt.Underlying().(*types.Map); isMap {
			t = union(t, taint{chain: []string{w.frame(rs, "map iteration order")}})
		}
	}
	if rs.Key != nil {
		w.set(rs.Key, t)
	}
	if rs.Value != nil {
		w.set(rs.Value, t)
	}
}

// collect runs the summary/report pass over a solved environment: sink
// contacts at every call, return taint, and the parameter-sink table. emit
// is nil while summaries are being solved and non-nil in the reporting pass.
func (w *walker) collect(body *ast.BlockStmt, emit func(token.Pos, string, []string)) summary {
	ast.Inspect(body, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.CallExpr:
			w.checkCall(nd, emit)
		case *ast.ReturnStmt:
			if len(nd.Results) == 0 {
				for _, obj := range w.results {
					w.ret = union(w.ret, w.env[obj])
				}
			}
			for _, e := range nd.Results {
				w.ret = union(w.ret, w.eval(e))
			}
		}
		return true
	})

	s := summary{ret: w.ret.chain, retParams: w.ret.params}
	params := make([]int, 0, len(w.sinks))
	for p := range w.sinks {
		params = append(params, p)
	}
	sort.Ints(params)
	for _, p := range params {
		s.sinks = append(s.sinks, w.sinks[p])
	}
	return s
}

// checkCall tests one call site for sink contact: direct sinks take any
// tainted argument; other callees may declare parameter sinks in their
// summaries, which stitch onto the argument's taint here.
func (w *walker) checkCall(call *ast.CallExpr, emit func(token.Pos, string, []string)) {
	for _, callee := range callgraph.ResolveCall(w.pass, w.cands, call) {
		if desc, ok := sinkOf(callee); ok {
			for _, a := range call.Args { // the receiver is the sink itself
				w.sinkContact(call, emit, desc, w.eval(a),
					[]string{w.frame(call, "argument to "+desc)})
			}
			continue
		}
		s := w.lookup(callee)
		for _, ps := range s.sinks {
			at := w.argTaintForParam(call, callee, ps.param)
			tail := append([]string{w.frame(call, "call "+callee.FullName())}, ps.chain...)
			w.sinkContact(call, emit, ps.sink, at, tail)
		}
	}
}

// sinkContact handles taint meeting a sink: chain taint is reported, and
// parameter taint becomes this function's own paramSink entries.
func (w *walker) sinkContact(call *ast.CallExpr, emit func(token.Pos, string, []string), sink string, at taint, tail []string) {
	if at.chain != nil && emit != nil {
		emit(call.Pos(), sink, append(append([]string{}, at.chain...), tail...))
	}
	for p := 0; p < w.nparams; p++ {
		if at.params&(1<<uint(p)) == 0 {
			continue
		}
		if _, ok := w.sinks[p]; !ok {
			w.sinks[p] = paramSink{param: p, sink: sink, chain: tail}
		}
	}
}

// eval computes the taint of an expression. context.Context values are
// sanitized by type (see the package comment).
func (w *walker) eval(e ast.Expr) taint {
	if e == nil {
		return taint{}
	}
	if isContext(w.pass.TypesInfo.TypeOf(e)) {
		return taint{}
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := w.pass.TypesInfo.ObjectOf(e); obj != nil {
			return w.env[obj]
		}
	case *ast.SelectorExpr:
		if sel, ok := w.pass.TypesInfo.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return w.eval(e.X) // object-granular: a field carries its owner's taint
		}
	case *ast.CallExpr:
		return w.evalCall(e)
	case *ast.BinaryExpr:
		return union(w.eval(e.X), w.eval(e.Y))
	case *ast.UnaryExpr:
		return w.eval(e.X)
	case *ast.StarExpr:
		return w.eval(e.X)
	case *ast.IndexExpr:
		return union(w.eval(e.X), w.eval(e.Index))
	case *ast.SliceExpr:
		return w.eval(e.X)
	case *ast.TypeAssertExpr:
		return w.eval(e.X)
	case *ast.CompositeLit:
		var t taint
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			t = union(t, w.eval(el))
		}
		return t
	}
	return taint{}
}

func (w *walker) evalCall(call *ast.CallExpr) taint {
	info := w.pass.TypesInfo
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() { // conversion
		if len(call.Args) == 1 {
			return w.eval(call.Args[0])
		}
		return taint{}
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append", "copy", "min", "max":
				var t taint
				for _, a := range call.Args {
					t = union(t, w.eval(a))
				}
				return t
			}
			return taint{}
		}
	}
	if desc, _, ok := sourceCall(info, call); ok {
		return taint{chain: []string{w.frame(call, desc)}}
	}
	targets := callgraph.ResolveCall(w.pass, w.cands, call)
	if len(targets) == 0 {
		// Function-valued call: launder argument taint conservatively.
		var t taint
		for _, a := range call.Args {
			t = union(t, w.eval(a))
		}
		return t
	}
	var out taint
	for _, callee := range targets {
		s := w.lookup(callee)
		if s.ret != nil {
			out = union(out, taint{chain: append(append([]string{}, s.ret...),
				w.frame(call, "returned by "+callee.FullName()))})
		}
		if s.retParams == 0 {
			continue
		}
		for i, a := range argsFor(call, callee) {
			bit := clampParam(callee, i)
			if s.retParams&(1<<uint(bit)) == 0 {
				continue
			}
			at := w.eval(a)
			if at.chain != nil {
				out = union(out, taint{chain: append(append([]string{}, at.chain...),
					w.frame(call, "through "+callee.FullName()))})
			}
			out.params |= at.params
		}
	}
	return out
}

// argTaintForParam unions the taint of every actual argument that maps to
// the callee's parameter index (variadic arguments all map to the last).
func (w *walker) argTaintForParam(call *ast.CallExpr, fn *types.Func, param int) taint {
	var t taint
	for i, a := range argsFor(call, fn) {
		if clampParam(fn, i) == param {
			t = union(t, w.eval(a))
		}
	}
	return t
}

func (w *walker) frame(at ast.Node, what string) string {
	return w.pass.Fset.Position(at.Pos()).String() + ": " + what
}

// argsFor aligns a call's actual arguments with the callee's parameter
// indices: for methods, index 0 is the receiver expression.
func argsFor(call *ast.CallExpr, fn *types.Func) []ast.Expr {
	sig, _ := fn.Type().(*types.Signature)
	var args []ast.Expr
	if sig != nil && sig.Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			args = append(args, sel.X)
		} else {
			args = append(args, nil) // method expression: receiver is args[0] twice; harmless
		}
	}
	return append(args, call.Args...)
}

// clampParam folds argument indices beyond the parameter count onto the
// last (variadic) parameter.
func clampParam(fn *types.Func, i int) int {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return i
	}
	n := sig.Params().Len()
	if sig.Recv() != nil {
		n++
	}
	if n == 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// --- sink recognition -------------------------------------------------------

func sinkOf(fn *types.Func) (string, bool) {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		recv := analysis.TypeName(sig.Recv().Type())
		for _, t := range strings.Split(SinkTypes, ",") {
			if recv == strings.TrimSpace(t) {
				return fn.FullName(), true
			}
		}
		return "", false
	}
	full := fn.FullName()
	for _, s := range strings.Split(SinkFuncs, ",") {
		s = strings.TrimSpace(s)
		if s != "" && (full == s || strings.HasSuffix(full, "/"+s)) {
			return full, true
		}
	}
	return "", false
}

func rootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.ObjectOf(v)
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

func isContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
