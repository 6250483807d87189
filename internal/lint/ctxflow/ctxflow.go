// Package ctxflow checks cancellation propagation in the NPB kernels: every
// loop that issues omp parallel regions — directly or through any chain of
// calls — must also reach rt.Checkpoint() in its body, or carry an explicit
// //simlint:nocheckpoint <reason> annotation. The contract
// (docs/ROBUSTNESS.md) is that kernel iteration boundaries stay cancellable:
// a deadline or cancellation must be observed within one outer iteration,
// never after the whole run.
//
// The analysis is interprocedural: each function's summary records whether
// it (transitively) issues a region, with a representative call chain, and
// whether it (transitively) reaches a checkpoint. A loop is then judged at
// its own nesting level: calls in its body are resolved through summaries,
// but nested loops are excluded — they are judged separately, and a
// checkpoint inside a nested loop does not bound the outer iteration.
// Function literals in the body are folded in (worksharing bodies run
// synchronously inside the region).
//
// Annotations are tracked for honesty both ways: a reasonless
// //simlint:nocheckpoint suppresses nothing and is reported, and a stale one
// (excusing a loop that no longer needs it) is reported for deletion.
package ctxflow

import (
	"fmt"
	"go/ast"
	"go/types"
	"slices"
	"strings"

	"hugeomp/internal/lint/analysis"
	"hugeomp/internal/lint/callgraph"
	"hugeomp/internal/lint/directive"
	"hugeomp/internal/lint/interproc"
)

const name = "ctxflow"

var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc: "every loop that issues omp regions (directly or through calls) must reach rt.Checkpoint() " +
		"in its body or carry //simlint:nocheckpoint <reason>: kernel iteration boundaries stay cancellable",
	Run: run,
}

// Packages limits reporting to the kernel packages (summaries are computed
// everywhere), matched by analysis.InScope.
var Packages = []string{"internal/npb"}

// RTType names the runtime type whose methods delimit regions and
// checkpoints, matched as a "pkg.Type" suffix of the receiver's qualified
// name.
var RTType = "omp.RT"

// RegionMethods are the RTType methods that issue simulated parallel work.
var RegionMethods = "Parallel,ParallelFor,ParallelForReduce"

// CheckpointMethods are the RTType methods that observe cancellation.
var CheckpointMethods = "Checkpoint"

// Summary is the per-function fact.
type Summary struct {
	// Region is non-nil when the function may issue an omp region; it holds
	// the call chain down to the region call.
	Region []string
	// Checkpoint reports whether the function may reach rt.Checkpoint().
	Checkpoint bool
}

func run(pass *analysis.Pass) (any, error) {
	g := callgraph.Build(pass)
	cands := callgraph.Candidates(pass.Pkg)

	an := &interproc.Analysis[Summary]{
		Facts:  name,
		Bottom: func(*types.Func) Summary { return Summary{} },
		Transfer: func(n *callgraph.Node, lookup func(*types.Func) Summary) Summary {
			var s Summary
			ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
				if call, ok := nd.(*ast.CallExpr); ok {
					scanCall(pass, cands, call, lookup, &s)
				}
				return true
			})
			return s
		},
		Equal: func(a, b Summary) bool {
			return a.Checkpoint == b.Checkpoint && slices.Equal(a.Region, b.Region)
		},
	}
	final := interproc.Solve(pass, g, an)

	if !analysis.InScope(Packages, pass.Pkg.Path()) {
		return nil, nil
	}

	ncs := directive.NoCheckpoints(pass.Fset, pass.Files)
	for _, n := range g.Funcs() {
		ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
			switch nd := nd.(type) {
			case *ast.ForStmt:
				checkLoop(pass, cands, final, ncs, nd, nd.Body)
			case *ast.RangeStmt:
				checkLoop(pass, cands, final, ncs, nd, nd.Body)
			}
			return true
		})
	}
	for _, nc := range ncs.Invalid() {
		pass.Reportf(nc.Pos, "//simlint:nocheckpoint needs a reason: say why this loop may run regions without observing cancellation")
	}
	for _, nc := range ncs.Stale() {
		pass.Reportf(nc.Pos, "stale //simlint:nocheckpoint (%s): no checkpoint-free region-issuing loop here any more; delete it", nc.Reason)
	}
	return nil, nil
}

// scanCall folds one call site into a region/checkpoint summary.
func scanCall(pass *analysis.Pass, cands []types.Type, call *ast.CallExpr, lookup func(*types.Func) Summary, s *Summary) {
	if m, ok := rtCall(pass, call); ok {
		if inList(m, CheckpointMethods) {
			s.Checkpoint = true
		} else if inList(m, RegionMethods) && s.Region == nil {
			s.Region = []string{frame(pass, call, "omp region "+m)}
		}
		return
	}
	for _, tg := range callgraph.ResolveCall(pass, cands, call) {
		cs := lookup(tg.Fn)
		if cs.Checkpoint {
			s.Checkpoint = true
		}
		if cs.Region != nil && s.Region == nil {
			s.Region = append([]string{frame(pass, call, "call "+tg.Fn.FullName())}, cs.Region...)
		}
	}
}

// checkLoop judges one loop at its own nesting level: nested loops are
// excluded (each is judged separately), function literals are folded in.
func checkLoop(pass *analysis.Pass, cands []types.Type, lookup func(*types.Func) Summary, ncs *directive.NoCheckpointSet, loop ast.Node, body *ast.BlockStmt) {
	var s Summary
	ast.Inspect(body, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return false // judged separately at its own level
		case *ast.CallExpr:
			scanCall(pass, cands, nd, lookup, &s)
		}
		return true
	})
	if s.Region == nil || s.Checkpoint {
		return
	}
	if ncs.Match(pass.Fset, loop.Pos()) {
		return
	}
	pass.Report(analysis.Diagnostic{
		Pos: loop.Pos(),
		Message: fmt.Sprintf(
			"loop issues omp regions without reaching rt.Checkpoint(): iteration boundaries must stay cancellable — checkpoint once per iteration or annotate //simlint:nocheckpoint <reason> (region path: %s)",
			strings.Join(s.Region, " -> ")),
		Trace: s.Region,
	})
}

// rtCall reports whether call invokes a method on the configured runtime
// type, returning the method name.
func rtCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil {
		return "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return "", false
	}
	t := sig.Recv().Type()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", false
	}
	qual := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	if qual != RTType && !strings.HasSuffix(qual, "/"+RTType) {
		return "", false
	}
	return fn.Name(), true
}

func inList(name, list string) bool {
	for _, m := range strings.Split(list, ",") {
		if strings.TrimSpace(m) == name {
			return true
		}
	}
	return false
}

func frame(pass *analysis.Pass, at ast.Node, what string) string {
	return pass.Fset.Position(at.Pos()).String() + ": " + what
}
