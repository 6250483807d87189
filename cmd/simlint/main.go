// Command simlint runs the simulator's static contract checks: determinism
// (no wall clocks, no global rand, no scheduler queries, no order-sensitive
// map iteration in simulator packages), dettaint (interprocedural
// determinism taint from host-state sources into profile counters and memo
// keys), lockorder (interprocedural lock-acquisition ordering against the
// documented hierarchy, with cycle detection, and no defer-unlock on hot
// paths), ctxflow (loops issuing omp regions must reach rt.Checkpoint or
// carry //simlint:nocheckpoint), atomicfield (//simlint:atomic fields only
// touched through sync/atomic), cowshared
// (//simlint:cowshared snapshot-shared arrays only written inside
// //simlint:cowbarrier functions — the copy-on-write write barrier) and
// padding (//simlint:padded layout and //simlint:writer false-sharing
// checks).
//
// Two modes share one engine:
//
//	simlint [flags] [packages]      # standalone, defaults to ./...
//	go vet -vettool=$(which simlint) ./...
//
// The second form speaks cmd/go's vettool protocol: -V=full and -flags for
// the handshake, then a single *.cfg argument per package with the build
// system supplying export data, so no source re-type-checking of
// dependencies is needed. Interprocedural facts (per-function summaries)
// flow between packages through the vetx files cmd/go threads from
// dependencies to dependents — and caches keyed by export data, so an
// unchanged package is never re-analyzed. The standalone mode walks the
// module in dependency order with one shared fact store, which by
// construction yields the same findings.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"hugeomp/internal/lint"
	"hugeomp/internal/lint/analysis"
	"hugeomp/internal/lint/ctxflow"
	"hugeomp/internal/lint/determinism"
	"hugeomp/internal/lint/dettaint"
	"hugeomp/internal/lint/load"
	"hugeomp/internal/lint/lockorder"
)

var (
	versionFlag = flag.String("V", "", "print version and exit (the go command's vettool handshake)")
	flagsFlag   = flag.Bool("flags", false, "print the tool's flags as JSON and exit (vettool handshake)")
	jsonFlag    = flag.Bool("json", false, "emit diagnostics as JSON instead of text")
	contextFlag = flag.Int("c", -1, "display offending line plus this many lines of context")

	detPackages = flag.String("determinism.packages", strings.Join(determinism.Packages, ","),
		"comma-separated package suffixes held to the determinism contract")
	dtPackages = flag.String("dettaint.packages", strings.Join(dettaint.Packages, ","),
		"comma-separated package suffixes where determinism taint is reported")
	dtSinkTypes = flag.String("dettaint.sinktypes", dettaint.SinkTypes,
		"comma-separated named types whose methods are determinism sinks")
	dtSinkFuncs = flag.String("dettaint.sinkfuncs", dettaint.SinkFuncs,
		"comma-separated pkg.Func sink functions (memo key builders)")
	loOrder = flag.String("lockorder.order", lockorder.Order,
		"lock hierarchy, outermost first, e.g. \"Context.l2Mu < busShard < Cache, cacheFields\"")
	loPackages = flag.String("lockorder.packages", strings.Join(lockorder.Packages, ","),
		"comma-separated package suffixes where lock-order violations are reported")
	cfPackages = flag.String("ctxflow.packages", strings.Join(ctxflow.Packages, ","),
		"comma-separated package suffixes whose loops must stay cancellable")
	cfRTType = flag.String("ctxflow.rttype", ctxflow.RTType,
		"pkg.Type of the omp runtime whose methods delimit regions and checkpoints")

	// Per-analyzer enable flags, unitchecker-style: if any is set
	// explicitly, only the set ones run.
	enable = map[string]*bool{}
)

func init() {
	for _, a := range lint.Analyzers() {
		enable[a.Name] = flag.Bool(a.Name, false, "run only the "+a.Name+" analyzer (and other explicitly enabled ones)")
	}
}

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: simlint [flags] [packages]\n   or: go vet -vettool=$(which simlint) [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *versionFlag != "" {
		handshakeVersion()
		return
	}
	if *flagsFlag {
		handshakeFlags()
		return
	}

	determinism.Packages = splitList(*detPackages)
	dettaint.Packages = splitList(*dtPackages)
	dettaint.SinkTypes = *dtSinkTypes
	dettaint.SinkFuncs = *dtSinkFuncs
	lockorder.Order = *loOrder
	lockorder.Packages = splitList(*loPackages)
	ctxflow.Packages = splitList(*cfPackages)
	ctxflow.RTType = *cfRTType

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(vettool(args[0]))
	}
	os.Exit(standalone(args))
}

// selected returns the analyzers to run, honouring explicit -<name> flags.
func selected() []*analysis.Analyzer {
	all := lint.Analyzers()
	anySet := false
	for _, a := range all {
		if *enable[a.Name] {
			anySet = true
		}
	}
	if !anySet {
		return all
	}
	var out []*analysis.Analyzer
	for _, a := range all {
		if *enable[a.Name] {
			out = append(out, a)
		}
	}
	return out
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// --- standalone mode -------------------------------------------------------

func standalone(patterns []string) int {
	pkgs, err := load.Load("", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		return 2
	}
	analyzers := selected()
	// One fact store shared across the dependency-ordered walk: summaries
	// computed for a dependency are visible when its dependents run, exactly
	// as the vetx files thread them in vettool mode.
	facts := analysis.NewFactStore()
	found := false
	var report jsonReport
	for _, p := range pkgs {
		diags, err := lint.Run(&lint.Unit{
			Fset:  p.Fset,
			Files: p.Files,
			Pkg:   p.Types,
			Info:  p.Info,
			Sizes: p.Sizes,
			Facts: facts,
		}, analyzers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simlint: %s: %v\n", p.ImportPath, err)
			return 2
		}
		if !p.Root {
			continue // dependencies contribute facts, not findings
		}
		for _, d := range diags {
			if *jsonFlag {
				report = append(report, jsonFinding(p.ImportPath, d))
			}
			if d.Suppressed {
				continue
			}
			found = true
			if !*jsonFlag {
				printPlain(d)
			}
		}
	}
	if *jsonFlag {
		report.print()
		return 0
	}
	if found {
		return 1
	}
	return 0
}

func printPlain(d lint.Diagnostic) {
	fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", d.Pos, d.Analyzer, d.Message)
	if *contextFlag >= 0 {
		printContext(d.Pos)
	}
}

// printContext echoes the offending source line (plus -c lines around it),
// mirroring go vet's plain output.
func printContext(pos token.Position) {
	data, err := os.ReadFile(pos.Filename)
	if err != nil {
		return
	}
	lines := strings.Split(string(data), "\n")
	for i := pos.Line - *contextFlag; i <= pos.Line+*contextFlag; i++ {
		if i >= 1 && i <= len(lines) {
			fmt.Fprintf(os.Stderr, "%d\t%s\n", i, lines[i-1])
		}
	}
}

// --- machine-readable findings ---------------------------------------------

// A finding is the SARIF-ish machine-readable form of one diagnostic:
// stable rule id, position, message, the interprocedural call-chain trace
// (outermost frame first), and the ignore status. Suppressed findings are
// included so audit tooling can see what the //simlint:ignore comments are
// holding back; consumers gating CI must filter on !suppressed.
type finding struct {
	Rule           string   `json:"rule"`
	Package        string   `json:"package"`
	Posn           string   `json:"posn"`
	Message        string   `json:"message"`
	Trace          []string `json:"trace,omitempty"`
	Suppressed     bool     `json:"suppressed,omitempty"`
	SuppressReason string   `json:"suppressReason,omitempty"`
}

type jsonReport []finding

func jsonFinding(pkgID string, d lint.Diagnostic) finding {
	return finding{
		Rule:           d.Analyzer,
		Package:        pkgID,
		Posn:           d.Pos.String(),
		Message:        d.Message,
		Trace:          d.Trace,
		Suppressed:     d.Suppressed,
		SuppressReason: d.SuppressReason,
	}
}

func (r jsonReport) print() {
	if r == nil {
		r = jsonReport{} // emit [] rather than null for an empty report
	}
	data, err := json.MarshalIndent(r, "", "\t")
	if err != nil {
		panic(err)
	}
	os.Stdout.Write(data)
	fmt.Println()
}

// --- vettool handshake -----------------------------------------------------

// handshakeVersion implements -V=full. cmd/go parses the line for a buildID,
// so the shape must match what x/tools' unitchecker prints: a hash of the
// executable stands in for a real build ID.
func handshakeVersion() {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		os.Exit(1)
	}
	f, err := os.Open(exe)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n",
		filepath.Base(exe), string(h.Sum(nil)))
}

// handshakeFlags implements -flags: the JSON flag inventory cmd/go uses to
// validate which flags it may forward to the tool.
func handshakeFlags() {
	type jsonFlagDesc struct {
		Name  string
		Bool  bool
		Usage string
	}
	var descs []jsonFlagDesc
	flag.VisitAll(func(f *flag.Flag) {
		isBool := false
		if bv, ok := f.Value.(interface{ IsBoolFlag() bool }); ok {
			isBool = bv.IsBoolFlag()
		}
		descs = append(descs, jsonFlagDesc{Name: f.Name, Bool: isBool, Usage: f.Usage})
	})
	data, err := json.Marshal(descs)
	if err != nil {
		panic(err)
	}
	os.Stdout.Write(data)
	fmt.Println()
}

// --- vettool .cfg mode -----------------------------------------------------

// vetConfig is the per-package JSON config cmd/go hands a vettool. Field
// names follow the x/tools unitchecker Config so either side can evolve.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	ModulePath                string
	ModuleVersion             string
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func vettool(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		return 1
	}
	cfg := new(vetConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "simlint: parsing %s: %v\n", cfgPath, err)
		return 1
	}

	// The go command also runs the vettool over dependency packages so a
	// tool can accumulate facts. simlint's contracts only bind module code
	// and its fact producers only summarize module functions, so packages
	// outside any module (the standard library has an empty ModulePath) get
	// an empty fact file and nothing else (some of them also trip go/types
	// corner cases that never matter for module code).
	if cfg.ModulePath == "" {
		return writeVetx(cfg, nil)
	}

	// Seed the fact store with the dependencies' summaries: cmd/go hands us
	// one vetx file per import, produced by earlier runs of this tool and
	// cached keyed by export data (so unchanged packages are incremental).
	facts := analysis.NewFactStore()
	for _, vetx := range cfg.PackageVetx {
		raw, err := os.ReadFile(vetx)
		if err != nil || len(raw) == 0 {
			continue // empty or missing vetx: a package with no facts
		}
		if err := facts.MergeEncoded(raw); err != nil {
			fmt.Fprintf(os.Stderr, "simlint: reading facts %s: %v\n", vetx, err)
			return 1
		}
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return writeVetx(cfg, nil)
			}
			fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
			return 1
		}
		files = append(files, f)
	}

	// Imports resolve through the export data the build system already
	// produced (cfg.PackageFile), so dependencies are never re-checked
	// from source.
	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return compilerImporter.Import(path)
	})

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	sizes := types.SizesFor(cfg.Compiler, runtime.GOARCH)
	if sizes == nil {
		sizes = types.SizesFor("gc", runtime.GOARCH)
	}
	conf := types.Config{Importer: imp, Sizes: sizes, GoVersion: cfg.GoVersion}
	tpkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return writeVetx(cfg, nil)
		}
		fmt.Fprintf(os.Stderr, "simlint: type-checking %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	diags, err := lint.Run(&lint.Unit{
		Fset:  fset,
		Files: files,
		Pkg:   tpkg,
		Info:  info,
		Sizes: sizes,
		Facts: facts,
	}, selected())
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	if code := writeVetx(cfg, facts); code != 0 {
		return code
	}
	if cfg.VetxOnly {
		return 0
	}

	visible := diags[:0:0]
	for _, d := range diags {
		if !d.Suppressed {
			visible = append(visible, d)
		}
	}
	if *jsonFlag {
		report := make(jsonReport, 0, len(diags))
		for _, d := range diags {
			report = append(report, jsonFinding(cfg.ID, d))
		}
		report.print()
		return 0
	}
	for _, d := range visible {
		printPlain(d)
	}
	if len(visible) > 0 {
		return 1
	}
	return 0
}

// writeVetx records this package's fact set (its own summaries plus the
// re-exported transitive ones) where the build system asked for it; cmd/go
// treats a missing output file as a tool failure.
func writeVetx(cfg *vetConfig, facts *analysis.FactStore) int {
	if cfg.VetxOutput == "" {
		return 0
	}
	var data []byte
	if facts != nil {
		var err error
		if data, err = facts.Encode(); err != nil {
			fmt.Fprintf(os.Stderr, "simlint: encoding facts: %v\n", err)
			return 1
		}
	}
	if err := os.WriteFile(cfg.VetxOutput, data, 0o666); err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		return 1
	}
	return 0
}
