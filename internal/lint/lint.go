// Package lint ties the simlint pieces together: the analyzer registry and
// the per-package runner that applies analyzers and the //simlint:ignore
// suppression rules.
package lint

import (
	"go/token"
	"sort"

	"hugeomp/internal/lint/analysis"
	"hugeomp/internal/lint/cowshared"
	"hugeomp/internal/lint/ctxflow"
	"hugeomp/internal/lint/determinism"
	"hugeomp/internal/lint/directive"
	"hugeomp/internal/lint/load"
	"hugeomp/internal/lint/lockorder"
	"hugeomp/internal/lint/panicboundary"
)

// Analyzers is the simlint suite, in reporting order. The interprocedural
// analyzers (determinism, lockorder, ctxflow) read and write facts through
// Pass.Facts; the rest are single-package.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		determinism.Analyzer,
		lockorder.Analyzer,
		ctxflow.Analyzer,
		cowshared.Analyzer,
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

// Run applies every analyzer to one package, reading and writing
// cross-package summaries through facts. Diagnostics suppressed by a
// reasoned //simlint:ignore are returned with Suppressed set; reasonless and
// stale ignores are reported as findings of the "ignore" pseudo-rule.
// Diagnostics come back in file/line order.
func Run(p *load.Package, facts *analysis.FactStore) ([]Diagnostic, error) {
	igs := directive.Ignores(p.Fset, p.Files)
	var out []Diagnostic
	for _, a := range Analyzers() {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      p.Fset,
			Files:     p.Files,
			Pkg:       p.Types,
			TypesInfo: p.Info,
			Facts:     facts,
			Report: func(d analysis.Diagnostic) {
				diag := Diagnostic{
					Analyzer: a.Name,
					Pos:      p.Fset.Position(d.Pos),
					Message:  d.Message,
					Trace:    d.Trace,
				}
				if ig := igs.Find(p.Fset, a.Name, d.Pos); ig != nil {
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
			Pos:      p.Fset.Position(ig.Pos),
			Message:  "//simlint:ignore needs a rule name and a written reason: every suppression must justify itself",
		})
	}
	for _, ig := range igs.Stale() {
		out = append(out, Diagnostic{
			Analyzer: "ignore",
			Pos:      p.Fset.Position(ig.Pos),
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
