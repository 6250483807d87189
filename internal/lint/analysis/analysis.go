// Package analysis is a minimal, self-contained reimplementation of the
// golang.org/x/tools/go/analysis vocabulary (Analyzer, Pass, Diagnostic) on
// the standard library alone. The container this repo builds in has no
// network and no x/tools module, so simlint carries its own framework; the
// API deliberately mirrors x/tools so the analyzers could be ported to the
// real framework by changing one import path.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer is one static check: a name, a doc string, and a Run function
// applied to one package at a time. Interprocedural analyzers carry
// per-function summaries across packages through Pass.Facts.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// "//simlint:ignore <name> <reason>" suppressions.
	Name string

	// Doc is a one-paragraph description of the check.
	Doc string

	// Run applies the analyzer to one package.
	Run func(*Pass) (any, error)
}

// A Pass provides one package's syntax and types to an Analyzer's Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Facts carries cross-package function summaries for the
	// interprocedural analyzers: summaries of dependency packages are read
	// from it and this package's summaries are written back. May be nil
	// (analysistest), in which case every external function gets its
	// analyzer's conservative default summary.
	Facts *FactStore

	// Report delivers one diagnostic. The driver owns it (it applies
	// //simlint:ignore filtering there, not in the analyzers).
	Report func(Diagnostic)
}

// A Diagnostic is one finding at a position.
type Diagnostic struct {
	Pos     token.Pos
	Message string

	// Trace is the call chain that produces interprocedural findings
	// (outermost frame first), e.g. the acquisition path of a lock-order
	// inversion. Empty for intra-function findings.
	Trace []string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Preorder calls fn for every node in every file, in depth-first preorder.
func Preorder(files []*ast.File, fn func(ast.Node)) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n != nil {
				fn(n)
			}
			return true
		})
	}
}

// WithStack calls fn for every node in preorder with the path of ancestors
// (stack[0] is the *ast.File, stack[len-1] is n itself). If fn returns
// false the node's children are skipped.
func WithStack(files []*ast.File, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			if !fn(n, stack) {
				// Children are skipped, so ast.Inspect will not deliver
				// the matching pop; unwind here.
				stack = stack[:len(stack)-1]
				return false
			}
			return true
		})
	}
}
