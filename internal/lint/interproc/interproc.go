// Package interproc is the shared fixpoint engine of simlint's
// interprocedural analyzers. An analyzer describes a per-function summary
// domain (any value type) and a transfer function; the engine
// solves the package bottom-up over the strongly connected components of
// its call graph, iterating each SCC to a fixpoint so mutual recursion
// converges, and bridges package boundaries through the pass's FactStore:
// summaries of dependency packages are looked up as facts, and the solved
// summaries are exported as facts for downstream packages.
//
// The domains used by the simlint analyzers are finite (sets of lock
// classes, parameter bitmasks, booleans with bounded chains), and transfer
// functions are monotone over them, so the fixpoint terminates; the engine
// additionally hard-caps SCC iteration at a generous round count as a
// defense against a non-monotone transfer bug.
package interproc

import (
	"go/types"

	"hugeomp/internal/lint/analysis"
	"hugeomp/internal/lint/callgraph"
)

// An Analysis describes one summary domain over functions.
type Analysis[S any] struct {
	// Facts namespaces this analysis's summaries in the FactStore;
	// conventionally the analyzer name.
	Facts string

	// Bottom returns the least summary for fn: the starting point of the
	// fixpoint and the fallback for unresolvable externals.
	Bottom func(fn *types.Func) S

	// External, if non-nil, supplies built-in summaries for functions with
	// no body in the package and no recorded fact (standard library,
	// runtime intrinsics). Returning ok=false falls back to Bottom.
	External func(fn *types.Func) (S, bool)

	// Transfer recomputes n's summary from its body, resolving callee
	// summaries through lookup. It must be monotone in the callee
	// summaries for the fixpoint to converge.
	Transfer func(n *callgraph.Node, lookup func(*types.Func) S) S

	// Equal reports whether two summaries are equal (fixpoint test).
	Equal func(a, b S) bool
}

// maxRounds bounds fixpoint iteration per SCC; the simulator's SCCs are
// tiny, so hitting this indicates a non-monotone transfer function.
const maxRounds = 64

// Solve computes the summary of every function declared in g, exports each
// to pass.Facts under a.Facts keyed by the function's FullName, and returns
// the solved lookup: this package's summaries, then dependency facts, then
// External, then Bottom.
func Solve[S any](pass *analysis.Pass, g *callgraph.Graph, a *Analysis[S]) func(*types.Func) S {
	sum := make(map[*types.Func]S, len(g.Funcs()))
	lookup := func(fn *types.Func) S {
		if n := g.Node(fn); n != nil {
			if s, ok := sum[fn]; ok {
				return s
			}
			// Forward reference within the SCC being iterated (or a
			// not-yet-visited mutual-recursion partner): start from bottom.
			return a.Bottom(fn)
		}
		if s, ok := pass.Facts.Get(a.Facts, fn.FullName()); ok {
			return s.(S)
		}
		if a.External != nil {
			if s, ok := a.External(fn); ok {
				return s
			}
		}
		return a.Bottom(fn)
	}

	for _, scc := range g.SCCs() {
		for _, n := range scc {
			sum[n.Fn] = a.Bottom(n.Fn)
		}
		for round := 0; round < maxRounds; round++ {
			changed := false
			for _, n := range scc {
				next := a.Transfer(n, lookup)
				if !a.Equal(sum[n.Fn], next) {
					sum[n.Fn] = next
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}

	for _, n := range g.Funcs() {
		pass.Facts.Set(a.Facts, n.Fn.FullName(), sum[n.Fn])
	}
	return lookup
}
