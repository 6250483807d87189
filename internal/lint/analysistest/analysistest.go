// Package analysistest runs an analyzer over a small corpus package and
// compares its diagnostics against `// want` comments, mirroring the
// x/tools package of the same name:
//
//	m := map[int]int{}
//	for k := range m {
//		total += float64(k) // want `does not commute`
//	}
//
// A want comment holds one or more Go string literals, each a regular
// expression that must match the message of a distinct diagnostic reported
// on that line. Lines without a want comment must produce no diagnostics.
// Corpus packages live under testdata/src/<name>/ and may import only the
// standard library, which is read from the compiler's export data in the
// build cache, as simlint reads it (internal/lint/load), so the harness
// works offline.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"hugeomp/internal/lint/analysis"
	"hugeomp/internal/lint/load"
)

// TestData returns the absolute path of the calling test's testdata
// directory.
func TestData() string {
	dir, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return dir
}

// Run loads testdata/src/<pkgname>, applies the analyzer, and reports any
// mismatch between its diagnostics and the corpus's want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgname string) {
	t.Helper()
	pass, err := Load(testdata, pkgname)
	if err != nil {
		t.Fatal(err)
	}

	var got []analysis.Diagnostic
	pass.Analyzer = a
	pass.Report = func(d analysis.Diagnostic) { got = append(got, d) }
	if _, err := a.Run(pass); err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}

	wants := collectWants(t, pass.Fset, pass.Files)
	matched := make([]bool, len(wants))

	sort.Slice(got, func(i, j int) bool { return got[i].Pos < got[j].Pos })
	for _, d := range got {
		p := pass.Fset.Position(d.Pos)
		ok := false
		for i, w := range wants {
			if matched[i] || w.file != p.Filename || w.line != p.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s: unexpected diagnostic: %s", posn(p), d.Message)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

var wantRE = regexp.MustCompile("^(?:/[/*] *)?want (.*)$")

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []want {
	t.Helper()
	var wants []want
	for _, f := range files {
		for _, g := range f.Comments {
			for _, c := range g.List {
				text := strings.TrimSuffix(c.Text, "*/")
				m := wantRE.FindStringSubmatch(strings.TrimSpace(text))
				if m == nil {
					continue
				}
				p := fset.Position(c.Pos())
				for _, lit := range splitLits(t, posn(p), m[1]) {
					re, err := regexp.Compile(lit)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", posn(p), lit, err)
					}
					wants = append(wants, want{file: p.Filename, line: p.Line, re: re})
				}
			}
		}
	}
	return wants
}

// splitLits parses a sequence of Go string literals: `a` "b" ...
func splitLits(t *testing.T, pos, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		var end int
		switch s[0] {
		case '`':
			end = strings.IndexByte(s[1:], '`')
			if end < 0 {
				t.Fatalf("%s: unterminated want pattern", pos)
			}
			out = append(out, s[1:1+end])
			s = s[end+2:]
		case '"':
			rest := s[1:]
			i := 0
			for ; i < len(rest); i++ {
				if rest[i] == '\\' {
					i++
				} else if rest[i] == '"' {
					break
				}
			}
			if i >= len(rest) {
				t.Fatalf("%s: unterminated want pattern", pos)
			}
			unq, err := strconv.Unquote(s[:i+2])
			if err != nil {
				t.Fatalf("%s: bad want pattern %s: %v", pos, s[:i+2], err)
			}
			out = append(out, unq)
			s = s[i+2:]
		default:
			t.Fatalf("%s: want patterns must be Go string literals, got %q", pos, s)
		}
		s = strings.TrimSpace(s)
	}
	return out
}

// Load type-checks testdata/src/<pkgname> as Run does and returns its pass
// with no analyzer, reporter or fact store attached — the input of the
// interprocedural infrastructure's own tests.
func Load(testdata, pkgname string) (*analysis.Pass, error) {
	dir := filepath.Join(testdata, "src", pkgname)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	imp, err := stdImporter(fset, files)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(pkgname, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", pkgname, err)
	}
	return &analysis.Pass{Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}, nil
}

// stdImporter returns an importer over the export data of the standard
// packages files import.
func stdImporter(fset *token.FileSet, files []*ast.File) (types.Importer, error) {
	var paths []string
	for _, f := range files {
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return nil, err
			}
			paths = append(paths, path)
		}
	}
	exports, err := load.ExportFiles("", paths)
	if err != nil {
		return nil, err
	}
	return load.ExportImporter(fset, exports), nil
}

func posn(p token.Position) string {
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}
