package interproc_test

import (
	"go/types"
	"slices"
	"testing"

	"hugeomp/internal/lint/analysis"
	"hugeomp/internal/lint/analysistest"
	"hugeomp/internal/lint/callgraph"
	"hugeomp/internal/lint/interproc"
)

// reach summarises a function as the sorted names of every function it
// transitively calls: a monotone domain whose value on a recursive SCC
// needs more than one round to settle.
var reach = &interproc.Analysis[[]string]{
	Facts:  "reach",
	Bottom: func(*types.Func) []string { return nil },
	Transfer: func(n *callgraph.Node, lookup func(*types.Func) []string) []string {
		var out []string
		for _, callee := range n.Calls {
			out = append(out, callee.Name())
			out = append(out, lookup(callee)...)
		}
		slices.Sort(out)
		return slices.Compact(out)
	},
	Equal: slices.Equal[[]string],
}

// TestSolveFixpointAndFacts: every function of the A→B→C→A cycle reaches
// all three plus Leaf, Entry reaches the same, and each solved summary is
// exported as a fact under the function's full name.
func TestSolveFixpointAndFacts(t *testing.T) {
	pass, err := analysistest.Load(analysistest.TestData(), "rec")
	if err != nil {
		t.Fatal(err)
	}
	pass.Facts = analysis.NewFactStore()
	g := callgraph.Build(pass)
	sum := interproc.Solve(pass, g, reach)

	cycle := []string{"A", "B", "C", "Leaf"}
	want := map[string][]string{"A": cycle, "B": cycle, "C": cycle, "Entry": cycle, "Leaf": nil}
	if len(g.Funcs()) != len(want) {
		t.Errorf("solved %d summaries, want %d", len(g.Funcs()), len(want))
	}
	for _, n := range g.Funcs() {
		name := n.Fn.Name()
		if got := sum(n.Fn); !slices.Equal(got, want[name]) {
			t.Errorf("summary of %s = %v, want %v", name, got, want[name])
		}
		if fact, ok := pass.Facts.Get("reach", n.Fn.FullName()); !ok {
			t.Errorf("no fact exported for %s", n.Fn.FullName())
		} else if !slices.Equal(fact.([]string), want[name]) {
			t.Errorf("fact for %s = %v, want %v", n.Fn.FullName(), fact, want[name])
		}
	}
}
