// Package lint ties the simlint pieces together: the analyzer registry and
// the per-package runner that applies analyzers and the //simlint:ignore
// suppression rules. Both driver modes of cmd/simlint (standalone and
// `go vet -vettool`) run packages through this code, so suppressions,
// reason-checking and fact propagation behave identically everywhere.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"hugeomp/internal/lint/analysis"
	"hugeomp/internal/lint/atomicfield"
	"hugeomp/internal/lint/cowshared"
	"hugeomp/internal/lint/ctxflow"
	"hugeomp/internal/lint/determinism"
	"hugeomp/internal/lint/dettaint"
	"hugeomp/internal/lint/directive"
	"hugeomp/internal/lint/lockorder"
	"hugeomp/internal/lint/padding"
	"hugeomp/internal/lint/panicboundary"
)

// Analyzers is the simlint suite, in reporting order. The interprocedural
// analyzers (dettaint, lockorder, ctxflow) read and write facts through
// Unit.Facts; the rest are single-package.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		determinism.Analyzer,
		dettaint.Analyzer,
		lockorder.Analyzer,
		ctxflow.Analyzer,
		atomicfield.Analyzer,
		cowshared.Analyzer,
		padding.Analyzer,
		panicboundary.Analyzer,
	}
}

// A Diagnostic is one finding. Suppressed findings are included (for the
// machine-readable output, which records the ignore status); text printers
// and exit codes must filter on !Suppressed.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// Trace is the interprocedural call chain behind the finding, outermost
	// frame first (empty for single-function findings).
	Trace []string
	// Suppressed marks a finding covered by a reasoned //simlint:ignore;
	// SuppressReason carries the written justification.
	Suppressed     bool
	SuppressReason string
}

// Unit is the package material the runner needs (a subset of load.Package,
// shaped so the vettool mode can fill it without the loader).
type Unit struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	Sizes types.Sizes
	// Facts carries per-function summaries across packages for the
	// interprocedural analyzers. May be nil (single-package mode): analyzers
	// then assume conservative defaults at package boundaries.
	Facts *analysis.FactStore
}

// Run applies the analyzers to one package. Diagnostics suppressed by a
// reasoned //simlint:ignore are returned with Suppressed set; reasonless and
// stale ignores are reported as findings of the "ignore" pseudo-rule.
// Diagnostics come back in file/line order.
//
// Test files are excluded globally: the simlint contracts bind simulation
// results, not test diagnostics, and `go vet` (which runs analyzers on test
// variants) must agree finding-for-finding with the standalone runner.
func Run(u *Unit, analyzers []*analysis.Analyzer) ([]Diagnostic, error) {
	files := u.Files[:0:0]
	for _, f := range u.Files {
		if !strings.HasSuffix(u.Fset.Position(f.Pos()).Filename, "_test.go") {
			files = append(files, f)
		}
	}
	igs := directive.Ignores(u.Fset, files)
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:   a,
			Fset:       u.Fset,
			Files:      files,
			Pkg:        u.Pkg,
			TypesInfo:  u.Info,
			TypesSizes: u.Sizes,
			Facts:      u.Facts,
			Report: func(d analysis.Diagnostic) {
				diag := Diagnostic{
					Analyzer: a.Name,
					Pos:      u.Fset.Position(d.Pos),
					Message:  d.Message,
					Trace:    d.Trace,
				}
				if ig := igs.Find(u.Fset, a.Name, d.Pos); ig != nil {
					diag.Suppressed = true
					diag.SuppressReason = ig.Reason
				}
				out = append(out, diag)
			},
		}
		if _, err := a.Run(pass); err != nil {
			return nil, err
		}
	}
	for _, ig := range igs.Invalid() {
		out = append(out, Diagnostic{
			Analyzer: "ignore",
			Pos:      u.Fset.Position(ig.Pos),
			Message:  "//simlint:ignore needs a rule name and a written reason: every suppression must justify itself",
		})
	}
	for _, ig := range igs.Stale() {
		out = append(out, Diagnostic{
			Analyzer: "ignore",
			Pos:      u.Fset.Position(ig.Pos),
			Message: "stale //simlint:ignore " + ig.RuleList() + " (" + ig.Reason +
				"): it no longer suppresses anything; delete it",
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out, nil
}
