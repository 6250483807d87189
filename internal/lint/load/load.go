// Package load turns `go list` package patterns into parsed, type-checked
// packages for the simlint analyzers. It is a miniature go/packages: the
// build list comes from `go list -deps -json`, module packages are
// type-checked from source in dependency order, and standard-library imports
// are read from the compiler's export data, which `go list -export` finds
// (or builds) in the build cache — no network, no x/tools.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// A Package is one type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	// Root marks a package matched by the load patterns (as opposed to an
	// in-module dependency pulled in for type-checking and fact computation).
	Root  bool
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listItem is the subset of `go list -json` output the loader consumes.
type listItem struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Imports    []string
	Standard   bool
	DepOnly    bool   // pulled in by -deps, not matched by a pattern
	Export     string // export data file; set only under -export
}

// goList runs `go list` with the given arguments in dir and decodes the JSON
// stream.
func goList(dir string, args ...string) ([]*listItem, error) {
	cmd := exec.Command("go", append([]string{"list", "-json=ImportPath,Dir,Name,GoFiles,Imports,Standard,DepOnly,Export"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", args, err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var items []*listItem
	for {
		it := new(listItem)
		if err := dec.Decode(it); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decoding output: %v", args, err)
		}
		items = append(items, it)
	}
	return items, nil
}

// Load type-checks the packages matching patterns plus their in-module
// dependencies and returns them ALL in dependency-first order, with Root set
// on the matched ones. Callers that only report on matched packages must
// still walk the dependencies first so interprocedural facts flow bottom-up.
// dir is the directory to resolve patterns from ("" for the current
// directory).
//
// `go list` applies the build context: files excluded by build tags never
// reach the parser, and GoFiles excludes _test.go files, so test code is
// invisible to this loader.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	deps, err := goList(dir, append([]string{"-deps"}, patterns...)...)
	if err != nil {
		return nil, err
	}

	byPath := make(map[string]*listItem, len(deps))
	var module []*listItem // non-standard packages, in go list (dependency-first) order
	for _, it := range deps {
		byPath[it.ImportPath] = it
		if !it.Standard && it.Name != "" {
			module = append(module, it)
		}
	}
	order, err := topo(module, byPath)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	std, err := stdImporter(fset, dir, order, byPath)
	if err != nil {
		return nil, err
	}
	checked := make(map[string]*types.Package)
	imp := &chainImporter{checked: checked, std: std, byPath: byPath}

	var out []*Package
	for _, it := range order {
		files := make([]*ast.File, 0, len(it.GoFiles))
		for _, name := range it.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(it.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Implicits:  make(map[ast.Node]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(it.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", it.ImportPath, err)
		}
		checked[it.ImportPath] = tpkg
		out = append(out, &Package{
			ImportPath: it.ImportPath,
			Dir:        it.Dir,
			Root:       !it.DepOnly,
			Fset:       fset,
			Files:      files,
			Types:      tpkg,
			Info:       info,
		})
	}
	return out, nil
}

// stdImporter returns an importer over the export data of the standard
// packages that module imports directly. It never needs the others: a
// package's export data carries every type it uses from its dependencies.
func stdImporter(fset *token.FileSet, dir string, module []*listItem, byPath map[string]*listItem) (types.Importer, error) {
	seen := make(map[string]bool)
	var paths []string
	for _, it := range module {
		for _, imp := range it.Imports {
			if dep, ok := byPath[imp]; ok && dep.Standard && !seen[imp] {
				seen[imp] = true
				paths = append(paths, imp)
			}
		}
	}
	exports := make(map[string]string, len(paths))
	if len(paths) > 0 {
		items, err := goList(dir, append([]string{"-export"}, paths...)...)
		if err != nil {
			return nil, err
		}
		for _, it := range items {
			exports[it.ImportPath] = it.Export
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file := exports[path]
		if file == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	}), nil
}

// chainImporter resolves module packages from the already-checked set and
// everything else (the standard library) through its export data.
type chainImporter struct {
	checked map[string]*types.Package
	std     types.Importer
	byPath  map[string]*listItem
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if p, ok := c.checked[path]; ok {
		return p, nil
	}
	if it, ok := c.byPath[path]; ok && !it.Standard {
		return nil, fmt.Errorf("module package %s imported before it was type-checked (loader bug)", path)
	}
	return c.std.Import(path)
}

// topo orders the module packages dependency-first. `go list -deps` already
// emits that order, but re-deriving it keeps the loader independent of that
// detail (and catches cycles with a clear error).
func topo(module []*listItem, byPath map[string]*listItem) ([]*listItem, error) {
	const (
		white = iota
		grey
		black
	)
	color := make(map[string]int, len(module))
	inModule := make(map[string]bool, len(module))
	for _, it := range module {
		inModule[it.ImportPath] = true
	}
	var out []*listItem
	var visit func(it *listItem) error
	visit = func(it *listItem) error {
		switch color[it.ImportPath] {
		case black:
			return nil
		case grey:
			return fmt.Errorf("import cycle through %s", it.ImportPath)
		}
		color[it.ImportPath] = grey
		for _, imp := range it.Imports {
			if inModule[imp] {
				if err := visit(byPath[imp]); err != nil {
					return err
				}
			}
		}
		color[it.ImportPath] = black
		out = append(out, it)
		return nil
	}
	for _, it := range module {
		if err := visit(it); err != nil {
			return nil, err
		}
	}
	return out, nil
}
