package callgraph_test

import (
	"go/types"
	"testing"

	"hugeomp/internal/lint/analysistest"
	"hugeomp/internal/lint/callgraph"
)

// build loads the corpus and returns its graph plus a lookup of declared
// functions and methods by name ("Area" is qualified by receiver:
// "Square.Area", "Circle.Area").
func build(t *testing.T) (*callgraph.Graph, map[string]*callgraph.Node) {
	t.Helper()
	pass, err := analysistest.Load(analysistest.TestData(), "cg")
	if err != nil {
		t.Fatal(err)
	}
	g := callgraph.Build(pass)
	byName := map[string]*callgraph.Node{}
	for _, n := range g.Funcs() {
		byName[name(n.Fn)] = n
	}
	return g, byName
}

func name(fn *types.Func) string {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		return t.(*types.Named).Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// TestFuncLitAttributedToEnclosing: the call inside Literal's function
// literal is an edge of Literal with InLit set, and the literal is not a
// node of its own.
func TestFuncLitAttributedToEnclosing(t *testing.T) {
	g, fns := build(t)
	calls := fns["Literal"].Calls
	if len(calls) != 1 || name(calls[0].Callee) != "leaf" || !calls[0].InLit {
		t.Fatalf("Literal's edges = %+v, want one InLit edge to leaf", calls)
	}
	if want := 9; len(g.Funcs()) != want {
		t.Errorf("graph has %d nodes, want the %d declared functions and methods", len(g.Funcs()), want)
	}
}

// TestInterfaceFanOut: a call through Shape.Area resolves to the method of
// every implementing type in the package, each edge naming the abstract
// method.
func TestInterfaceFanOut(t *testing.T) {
	_, fns := build(t)
	got := map[string]bool{}
	for _, e := range fns["Dynamic"].Calls {
		if e.Iface == nil || e.Iface.Name() != "Area" || e.InLit {
			t.Errorf("edge to %s: Iface=%v InLit=%v, want Iface Shape.Area outside a literal", name(e.Callee), e.Iface, e.InLit)
		}
		got[name(e.Callee)] = true
	}
	if len(got) != 2 || !got["Square.Area"] || !got["Circle.Area"] {
		t.Errorf("Dynamic's callees = %v, want Square.Area and Circle.Area", got)
	}
}

// TestFuncValueNoEdge: calls through function-typed values resolve to
// nothing, whether the value is a parameter or a local bound to a literal.
func TestFuncValueNoEdge(t *testing.T) {
	_, fns := build(t)
	if calls := fns["Indirect"].Calls; len(calls) != 0 {
		t.Errorf("Indirect's edges = %+v, want none", calls)
	}
	for _, e := range fns["Literal"].Calls {
		if !e.InLit {
			t.Errorf("Literal has an edge to %s outside its literal; the call through f must produce none", name(e.Callee))
		}
	}
}

// TestSCCsMutualRecursionCalleesFirst: Even and Odd form one component, and
// every component comes after the components it calls into.
func TestSCCsMutualRecursionCalleesFirst(t *testing.T) {
	g, _ := build(t)
	pos := map[string]int{}
	for i, scc := range g.SCCs() {
		for _, n := range scc {
			if _, dup := pos[name(n.Fn)]; dup {
				t.Fatalf("%s in two components", name(n.Fn))
			}
			pos[name(n.Fn)] = i
		}
		if len(scc) > 1 && len(scc) != 2 {
			t.Errorf("unexpected %d-function component", len(scc))
		}
	}
	if pos["Even"] != pos["Odd"] {
		t.Errorf("Even (component %d) and Odd (component %d) not in one component", pos["Even"], pos["Odd"])
	}
	for _, n := range g.Funcs() {
		for _, e := range n.Calls {
			callee := name(e.Callee)
			if pos[callee] > pos[name(n.Fn)] {
				t.Errorf("%s (component %d) precedes its callee %s (component %d)",
					name(n.Fn), pos[name(n.Fn)], callee, pos[callee])
			}
		}
	}
}
