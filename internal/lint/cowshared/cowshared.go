// Package cowshared enforces the snapshot layer's copy-on-write write
// barrier: struct fields annotated //simlint:cowshared (the page table's
// aliased PTE frames, for example) may be shared read-only between a forked
// table and its parent, so every mutation must route through a function
// annotated //simlint:cowbarrier — the barrier clones the shared structure
// into the writer before touching it. A write (or an address escape) of an
// annotated field anywhere else is an error: it compiles, works until the
// first fork, and then silently leaks one fork's mutations into every
// sibling.
//
// Flagged accesses outside //simlint:cowbarrier functions:
//
//   - assignment to the field (`e.ptes = x`), to an element reached through
//     it (`e.ptes[i] = p`), or through a dereference (`*e.ptes = v`);
//   - ++/-- on the field or an element reached through it;
//   - &f (or &f[i], &*f...): the address can be written by unchecked code.
//
// Reads are unrestricted — read-sharing is the point of the annotation —
// and keyed composite-literal initialisation is fine (the value is private
// while it is being built, and literal keys are plain identifiers anyway).
// A justified exception needs a //simlint:ignore cowshared <reason>.
//
// The annotation is package-local by design: annotated fields should be
// unexported, so all their accesses type-check in the declaring package.
package cowshared

import (
	"go/ast"
	"go/token"
	"go/types"

	"hugeomp/internal/lint/analysis"
	"hugeomp/internal/lint/directive"
)

var Analyzer = &analysis.Analyzer{
	Name: "cowshared",
	Doc: "fields annotated //simlint:cowshared may only be written inside " +
		"//simlint:cowbarrier functions (the COW write barrier)",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	annotated := collect(pass)
	if len(annotated) == 0 {
		return nil, nil
	}
	barriers := collectBarriers(pass)
	analysis.WithStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[sel.Sel]
		if obj == nil || !annotated[obj] {
			return true
		}
		if inBarrier(stack, barriers) {
			return true
		}
		if kind := mutation(stack); kind != "" {
			pass.Reportf(sel.Pos(),
				"%s of %s, which is marked //simlint:cowshared, outside a //simlint:cowbarrier function: "+
					"route the mutation through the COW write barrier (or justify with //simlint:ignore cowshared <reason>)",
				kind, obj.Name())
		}
		return true
	})
	return nil, nil
}

// collect gathers the *types.Var objects of every //simlint:cowshared field
// declared in this package.
func collect(pass *analysis.Pass) map[types.Object]bool {
	out := make(map[types.Object]bool)
	analysis.Preorder(pass.Files, func(n ast.Node) {
		st, ok := n.(*ast.StructType)
		if !ok {
			return
		}
		for _, f := range st.Fields.List {
			if !directive.Has(directive.Field(f), "cowshared") {
				continue
			}
			for _, name := range f.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil {
					out[obj] = true
				}
			}
		}
	})
	return out
}

// collectBarriers gathers the function declarations whose doc comment
// carries //simlint:cowbarrier.
func collectBarriers(pass *analysis.Pass) map[*ast.FuncDecl]bool {
	out := make(map[*ast.FuncDecl]bool)
	analysis.Preorder(pass.Files, func(n ast.Node) {
		if fd, ok := n.(*ast.FuncDecl); ok && directive.Has(directive.Func(fd), "cowbarrier") {
			out[fd] = true
		}
	})
	return out
}

// inBarrier reports whether the matched selector sits inside a
// //simlint:cowbarrier function (function literals inherit the enclosing
// declaration's annotation — the barrier is a lexical region).
func inBarrier(stack []ast.Node, barriers map[*ast.FuncDecl]bool) bool {
	for _, n := range stack {
		if fd, ok := n.(*ast.FuncDecl); ok {
			return barriers[fd]
		}
	}
	return false
}

// mutation classifies the access at the top of the stack: it climbs the
// expression chain rooted at the annotated selector (index, dereference,
// member selection, parens) and reports "write" if the chain is assigned or
// ++/--'d, "address escape" if its address is taken, and "" for reads.
func mutation(stack []ast.Node) string {
	i := len(stack) - 1 // stack[i] is the SelectorExpr itself
	node := stack[i]
	for i > 0 {
		switch p := stack[i-1].(type) {
		case *ast.IndexExpr:
			if p.X != node {
				return "" // field used as the index — a read
			}
		case *ast.SelectorExpr:
			if p.X != node {
				return ""
			}
		case *ast.StarExpr, *ast.ParenExpr:
			// climb
		default:
			goto classify
		}
		i--
		node = stack[i]
	}
classify:
	if i == 0 {
		return ""
	}
	switch p := stack[i-1].(type) {
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if lhs == node {
				return "write"
			}
		}
	case *ast.IncDecStmt:
		if p.X == node {
			return "write"
		}
	case *ast.UnaryExpr:
		if p.Op == token.AND {
			return "address escape"
		}
	}
	return ""
}
