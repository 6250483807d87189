// Command simlint runs the simulator's static contract checks: determinism
// (no wall clocks, no global rand, no scheduler queries and no
// order-sensitive map iteration in simulator packages, and no host-state
// value reaching profile counters or memo keys through any call chain),
// lockorder (every nested lock acquisition follows the documented
// hierarchy), ctxflow (loops issuing omp regions must reach rt.Checkpoint
// or carry //simlint:nocheckpoint), cowshared (//simlint:cowshared
// snapshot-shared arrays only written inside //simlint:cowbarrier functions
// — the copy-on-write write barrier) and panicboundary (every goroutine of a
// service package starts inside a //simlint:panicboundary function that
// installs recover).
//
// Usage:
//
//	simlint [-json] [packages]      # packages default to ./...
//
// It type-checks the module from source and walks it in dependency order
// with one fact store, so per-function summaries of a dependency are known
// before its dependents are analyzed. Findings print as
// "file:line:col: [rule] message" and make the exit status 1; -json prints
// every finding, suppressed ones included, and exits 0.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"hugeomp/internal/lint"
	"hugeomp/internal/lint/analysis"
	"hugeomp/internal/lint/load"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole tool: exit status 0 when clean (or with -json), 1 on
// findings, 2 on usage, load or analysis errors.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("simlint", flag.ContinueOnError)
	flags.SetOutput(stderr)
	asJSON := flags.Bool("json", false, "emit every finding as JSON (suppressed ones included) and exit 0")
	flags.Usage = func() {
		fmt.Fprintf(stderr, "usage: simlint [-json] [packages]\n")
		flags.PrintDefaults()
	}
	if err := flags.Parse(args); err != nil {
		return 2
	}

	pkgs, err := load.Load("", flags.Args()...)
	if err != nil {
		fmt.Fprintf(stderr, "simlint: %v\n", err)
		return 2
	}
	facts := analysis.NewFactStore()
	found := false
	report := []finding{} // [] rather than null when clean
	for _, p := range pkgs {
		diags, err := lint.Run(p, facts)
		if err != nil {
			fmt.Fprintf(stderr, "simlint: %s: %v\n", p.ImportPath, err)
			return 2
		}
		if !p.Root {
			continue // dependencies contribute facts, not findings
		}
		for _, d := range diags {
			report = append(report, finding{
				Rule:           d.Analyzer,
				Package:        p.ImportPath,
				Posn:           d.Pos.String(),
				Message:        d.Message,
				Trace:          d.Trace,
				Suppressed:     d.Suppressed,
				SuppressReason: d.SuppressReason,
			})
			if !d.Suppressed {
				found = true
				if !*asJSON {
					fmt.Fprintf(stderr, "%s: [%s] %s\n", d.Pos, d.Analyzer, d.Message)
				}
			}
		}
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetEscapeHTML(false) // keep the chains' "->" readable
		enc.SetIndent("", "\t")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(stderr, "simlint: %v\n", err)
			return 2
		}
		return 0
	}
	if found {
		return 1
	}
	return 0
}

// A finding is the machine-readable form of one diagnostic: rule, position,
// message, the interprocedural call chain (outermost frame first) and the
// ignore status. Suppressed findings are included so audit tooling can see
// what the //simlint:ignore comments are holding back; consumers gating CI
// must filter on !suppressed.
type finding struct {
	Rule           string   `json:"rule"`
	Package        string   `json:"package"`
	Posn           string   `json:"posn"`
	Message        string   `json:"message"`
	Trace          []string `json:"trace,omitempty"`
	Suppressed     bool     `json:"suppressed,omitempty"`
	SuppressReason string   `json:"suppressReason,omitempty"`
}
