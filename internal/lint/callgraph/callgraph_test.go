package callgraph_test

import (
	"go/types"
	"slices"
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
// literal is a call of Literal, and the literal is not a node of its own.
func TestFuncLitAttributedToEnclosing(t *testing.T) {
	g, fns := build(t)
	calls := fns["Literal"].Calls
	if len(calls) != 1 || name(calls[0]) != "leaf" {
		t.Fatalf("Literal's callees = %v, want leaf alone", calls)
	}
	if want := 9; len(g.Funcs()) != want {
		t.Errorf("graph has %d nodes, want the %d declared functions and methods", len(g.Funcs()), want)
	}
}

// TestInterfaceFanOut: a call through Shape.Area resolves to the method of
// every implementing type in the package, once each.
func TestInterfaceFanOut(t *testing.T) {
	_, fns := build(t)
	var got []string
	for _, callee := range fns["Dynamic"].Calls {
		got = append(got, name(callee))
	}
	slices.Sort(got)
	if want := []string{"Circle.Area", "Square.Area"}; !slices.Equal(got, want) {
		t.Errorf("Dynamic's callees = %v, want %v", got, want)
	}
}

// TestFuncValueNoEdge: calls through function-typed values resolve to
// nothing, whether the value is a parameter or a local bound to a literal
// (Literal's call through f adds nothing to its one callee, leaf).
func TestFuncValueNoEdge(t *testing.T) {
	_, fns := build(t)
	if calls := fns["Indirect"].Calls; len(calls) != 0 {
		t.Errorf("Indirect's callees = %v, want none", calls)
	}
	if calls := fns["Literal"].Calls; len(calls) != 1 {
		t.Errorf("Literal's callees = %v; the call through f must add none", calls)
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
		for _, c := range n.Calls {
			callee := name(c)
			if pos[callee] > pos[name(n.Fn)] {
				t.Errorf("%s (component %d) precedes its callee %s (component %d)",
					name(n.Fn), pos[name(n.Fn)], callee, pos[callee])
			}
		}
	}
}
