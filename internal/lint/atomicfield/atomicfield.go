// Package atomicfield enforces the simulator's published-word contract:
// struct fields annotated //simlint:atomic are racily shared between
// goroutines, so every touch must go through sync/atomic. A plain read or
// write of an annotated field is an error: mixed plain/atomic access is
// exactly the bug class the annotation exists to keep out, because it
// compiles, passes most runs, and corrupts shared state only under
// contention.
//
// Allowed accesses:
//
//   - &f (or &f[i] for slice fields) passed directly to a sync/atomic call;
//   - len(f), cap(f);
//   - `for i := range f` with no value variable (length-only iteration);
//   - keyed struct-literal initialisation (the struct is unpublished while
//     it is being built).
//
// Anything else — including a deliberate mutex-protected plain read — needs
// a //simlint:ignore atomicfield <reason>.
//
// The annotation is package-local by design: annotated fields should be
// unexported, so all their accesses type-check in the declaring package.
package atomicfield

import (
	"go/ast"
	"go/types"

	"hugeomp/internal/lint/analysis"
	"hugeomp/internal/lint/directive"
)

var Analyzer = &analysis.Analyzer{
	Name: "atomicfield",
	Doc: "fields annotated //simlint:atomic may only be accessed through sync/atomic; " +
		"mixed plain/atomic access is an error",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	annotated := collect(pass)
	if len(annotated) == 0 {
		return nil, nil
	}
	analysis.WithStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[sel.Sel]
		if obj == nil || !annotated[obj] {
			return true
		}
		if !allowed(pass, stack) {
			pass.Reportf(sel.Pos(),
				"plain access to %s, which is marked //simlint:atomic: use sync/atomic (or justify with //simlint:ignore atomicfield <reason>)",
				obj.Name())
		}
		return true
	})
	return nil, nil
}

// collect gathers the *types.Var objects of every //simlint:atomic field
// declared in this package.
func collect(pass *analysis.Pass) map[types.Object]bool {
	out := make(map[types.Object]bool)
	analysis.Preorder(pass.Files, func(n ast.Node) {
		st, ok := n.(*ast.StructType)
		if !ok {
			return
		}
		for _, f := range st.Fields.List {
			if !directive.Has(directive.Field(f), "atomic") {
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

// allowed inspects the ancestor chain of the matched selector (the last
// stack entry) and accepts the atomic-access shapes listed in the package
// doc.
func allowed(pass *analysis.Pass, stack []ast.Node) bool {
	i := len(stack) - 1 // stack[i] is the SelectorExpr itself
	parent := func(k int) ast.Node {
		if i-k < 0 {
			return nil
		}
		return stack[i-k]
	}

	// Struct-literal key: `cacheFields{states: ...}`. The key ident of a
	// KeyValueExpr resolves to the field object, and its parent chain is
	// CompositeLit → KeyValueExpr. Only the key position is sanctioned: the
	// value side of `other{f: src.state}` is a plain read like any other.
	// (A SelectorExpr never is a literal key, so the key arm only matters
	// for the Ident fallback — kept for clarity.)
	if kv, ok := parent(1).(*ast.KeyValueExpr); ok {
		if _, ok := parent(2).(*ast.CompositeLit); ok {
			return kv.Key == stack[i]
		}
	}

	n := 1
	// Step over an index expression on slice/array fields: &f[i].
	if ix, ok := parent(n).(*ast.IndexExpr); ok && ix.X == stack[i] {
		n++
	}

	switch p := parent(n).(type) {
	case *ast.UnaryExpr:
		// &f or &f[i]: fine exactly when the address feeds sync/atomic.
		if p.Op.String() != "&" {
			return false
		}
		call, ok := parent(n + 1).(*ast.CallExpr)
		return ok && isAtomicCall(pass, call)
	case *ast.CallExpr:
		// len(f) / cap(f) read only the header.
		if id, ok := ast.Unparen(p.Fun).(*ast.Ident); ok {
			if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
				return b.Name() == "len" || b.Name() == "cap"
			}
		}
		return false
	case *ast.RangeStmt:
		// `for i := range f`: length-only; a value variable would read
		// elements plainly.
		return p.X == stack[i-n+1] && p.Value == nil
	}
	return false
}

func isAtomicCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := analysis.Callee(pass.TypesInfo, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic"
}
