package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// InScope reports whether the package path matches one of pkgs: equal to
// an entry, or ending in "/" plus it.
func InScope(pkgs []string, path string) bool {
	for _, p := range pkgs {
		if path == p || strings.HasSuffix(path, "/"+p) {
			return true
		}
	}
	return false
}

// Callee resolves the *types.Func a call expression invokes (package
// function, method, or method value), or nil for builtins, conversions,
// function-typed variables and indirect calls.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// NamedOf unwraps pointers and aliases and returns the named type beneath t,
// or nil if t does not reach a named type (unnamed structs, basics, etc.).
func NamedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(u)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// TypeName returns the bare name of the named type beneath t ("Cache" for
// *cache.Cache), or "" if there is none.
func TypeName(t types.Type) string {
	if n := NamedOf(t); n != nil {
		return n.Obj().Name()
	}
	return ""
}
