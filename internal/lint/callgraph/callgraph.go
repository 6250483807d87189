// Package callgraph builds a type-resolved static call graph over one
// package, the substrate of simlint's interprocedural analyzers
// (determinism, lockorder, ctxflow).
//
// Resolution is CHA-style (class-hierarchy analysis): direct calls resolve
// through the type checker to their *types.Func; calls through an interface
// method fan out to that method on every concrete named type — declared in
// this package or in a directly imported one — whose method set implements
// the interface. That is exactly strong enough for the simulator's
// interfaces (npb.Kernel, for one), which are closed sets of
// in-module implementations. Calls through function-typed values produce no
// edge; analyzers treat their effects conservatively at the few places it
// matters (documented per analyzer).
//
// Calls inside a function literal are attributed to the enclosing declared
// function: the simulator's literals are worksharing bodies invoked
// synchronously by the runtime, so folding them into the parent's summary is
// the conservative direction for every client analysis.
package callgraph

import (
	"go/ast"
	"go/types"

	"hugeomp/internal/lint/analysis"
)

// A Node is one function declared in the package under analysis.
type Node struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	// Calls holds the resolved targets of every call site in the body,
	// literals included, in source order; a target may belong to another
	// package.
	Calls []*types.Func
}

// A Graph holds the package's nodes in declaration order.
type Graph struct {
	Pkg   *types.Package
	nodes map[*types.Func]*Node
	order []*Node
}

// Node returns the graph node for fn, or nil if fn is not declared (with a
// body) in this package.
func (g *Graph) Node(fn *types.Func) *Node { return g.nodes[fn] }

// Funcs returns every node in source declaration order.
func (g *Graph) Funcs() []*Node { return g.order }

// Build constructs the call graph for the package in pass.
func Build(pass *analysis.Pass) *Graph {
	g := &Graph{Pkg: pass.Pkg, nodes: make(map[*types.Func]*Node)}
	cands := concreteTypes(pass.Pkg)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			n := &Node{Fn: fn, Decl: fd}
			// Calls inside a literal, nested literals included, are the
			// caller's.
			ast.Inspect(fd.Body, func(x ast.Node) bool {
				if call, ok := x.(*ast.CallExpr); ok {
					n.Calls = append(n.Calls, ResolveCall(pass, cands, call)...)
				}
				return true
			})
			g.nodes[fn] = n
			g.order = append(g.order, n)
		}
	}
	return g
}

// ResolveCall returns the possible static targets of a call expression:
// the checked callee for direct calls, or the CHA expansion for interface
// method calls over the candidate concrete types. Builtins, conversions and
// function-value calls resolve to nothing.
func ResolveCall(pass *analysis.Pass, cands []types.Type, call *ast.CallExpr) []*types.Func {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil {
		return nil
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return nil
	}
	recv := sig.Recv()
	if recv == nil || !types.IsInterface(recv.Type()) {
		return []*types.Func{fn}
	}
	// Interface method: fan out to every candidate implementation.
	iface, _ := recv.Type().Underlying().(*types.Interface)
	if iface == nil {
		return nil
	}
	var out []*types.Func
	for _, t := range cands {
		impl := t
		if !types.Implements(impl, iface) {
			impl = types.NewPointer(t)
			if !types.Implements(impl, iface) {
				continue
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, fn.Pkg(), fn.Name())
		if m, ok := obj.(*types.Func); ok {
			out = append(out, m)
		}
	}
	return out
}

// Candidates returns the concrete named types visible to the package (its
// own scope plus directly imported packages), the CHA universe for
// interface call resolution.
func Candidates(pkg *types.Package) []types.Type { return concreteTypes(pkg) }

func concreteTypes(pkg *types.Package) []types.Type {
	var out []types.Type
	collect := func(p *types.Package) {
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			out = append(out, named)
		}
	}
	collect(pkg)
	for _, imp := range pkg.Imports() {
		collect(imp)
	}
	return out
}

// SCCs returns the strongly connected components of the intra-package call
// graph in callee-first (reverse topological) order: by the time a
// component is visited, every component it calls into has already been
// emitted. Tarjan's algorithm yields exactly this order.
func (g *Graph) SCCs() [][]*Node {
	type vstate struct {
		index, low int
		onStack    bool
	}
	state := make(map[*Node]*vstate, len(g.order))
	var stack []*Node
	var sccs [][]*Node
	next := 0

	var strong func(n *Node)
	strong = func(n *Node) {
		st := &vstate{index: next, low: next}
		next++
		state[n] = st
		stack = append(stack, n)
		st.onStack = true
		for _, callee := range n.Calls {
			m := g.nodes[callee]
			if m == nil {
				continue // external callee: not part of this graph
			}
			ms, seen := state[m]
			if !seen {
				strong(m)
				if ml := state[m].low; ml < st.low {
					st.low = ml
				}
			} else if ms.onStack && ms.index < st.low {
				st.low = ms.index
			}
		}
		if st.low == st.index {
			var scc []*Node
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				state[m].onStack = false
				scc = append(scc, m)
				if m == n {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, n := range g.order {
		if _, seen := state[n]; !seen {
			strong(n)
		}
	}
	return sccs
}
