package analysis

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
	"strings"
	"sync"
)

// Package is one typechecked package ready for analysis.
type Package struct {
	Path      string // import path ("pkg" or "pkg [pkg.test]" for the merged test variant)
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
	// HasTestFiles reports whether the unit includes *_test.go files —
	// checks that require test coverage only fire on such units, which
	// matches how `go vet` builds its units.
	HasTestFiles bool
}

// listEntry is the subset of `go list -json` output the loader needs.
type listEntry struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	Standard   bool
	DepOnly    bool
	ForTest    string
	ImportMap  map[string]string
}

// loadCache memoizes Load results for the lifetime of the process,
// keyed by (absolute dir, patterns). One anufsvet run — and one test
// binary running many analyzers over the same fixtures — invokes
// `go list -e -export -deps -test -json` and typechecks each unit once;
// every subsequent Load for the same key reuses the packages, which are
// read-only after construction.
var loadCache = struct {
	sync.Mutex
	m map[string]*loadResult
}{m: map[string]*loadResult{}}

type loadResult struct {
	pkgs []*Package
	err  error
}

// Load typechecks the packages matching patterns in dir, test files
// included, the same way `go vet` builds its analysis units: for a
// package with in-package test files the merged package+test variant is
// analyzed; external _test packages and synthesized test mains are
// skipped (the suite's analyzers target package code and its in-package
// tests). Dependencies are imported from compiler export data produced
// by `go list -export`, so loading needs no network and shares the
// build cache.
func Load(dir string, patterns ...string) ([]*Package, error) {
	key := loadKey(dir, patterns)
	loadCache.Lock()
	defer loadCache.Unlock()
	if r, ok := loadCache.m[key]; ok {
		return r.pkgs, r.err
	}
	pkgs, err := load(dir, patterns)
	loadCache.m[key] = &loadResult{pkgs: pkgs, err: err}
	return pkgs, err
}

func loadKey(dir string, patterns []string) string {
	if abs, err := filepath.Abs(dir); err == nil {
		dir = abs
	}
	return dir + "\x00" + strings.Join(patterns, "\x00")
}

func load(dir string, patterns []string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-test", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	var entries []*listEntry
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		e := new(listEntry)
		if err := dec.Decode(e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		entries = append(entries, e)
	}

	exports := map[string]string{}
	for _, e := range entries {
		if e.Export != "" {
			exports[e.ImportPath] = e.Export
		}
	}

	// Pick the analysis units: prefer the merged "pkg [pkg.test]"
	// variant; fall back to the plain package when it has no in-package
	// tests. Skip external test packages and the synthesized ".test"
	// mains. Dependencies outside the patterns (the standard library
	// included) are not units: their export data is all a unit needs.
	merged := map[string]bool{} // base paths that have a merged variant
	for _, e := range entries {
		if e.ForTest != "" && e.ImportPath == e.ForTest+" ["+e.ForTest+".test]" {
			merged[e.ForTest] = true
		}
	}
	fset := token.NewFileSet()
	imp := newCachedImporter(fset, exports)
	var pkgs []*Package
	for _, e := range entries {
		if e.Standard || e.DepOnly || strings.HasSuffix(e.ImportPath, ".test") ||
			strings.HasSuffix(e.Name, "_test") {
			continue
		}
		if e.ForTest != "" && e.ImportPath != e.ForTest+" ["+e.ForTest+".test]" {
			continue
		}
		if e.ForTest == "" && merged[e.ImportPath] {
			continue // superseded by its merged test variant
		}
		if len(e.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: cgo packages are not supported", e.ImportPath)
		}
		pkg, err := typecheck(fset, e, imp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// typecheck parses and typechecks one unit from source.
func typecheck(fset *token.FileSet, e *listEntry, imp types.Importer) (*Package, error) {
	var files []*ast.File
	hasTests := false
	for _, name := range e.GoFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(e.Dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(name, "_test.go") {
			hasTests = true
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	// Per-unit import remapping (test variants import the bracketed
	// builds of their dependencies).
	unitImp := importerFunc(func(path string) (*types.Package, error) {
		if mapped, ok := e.ImportMap[path]; ok {
			path = mapped
		}
		return imp.Import(path)
	})
	conf := &types.Config{Importer: unitImp, Error: func(error) {}}
	basePath := e.ForTest
	if basePath == "" {
		basePath = e.ImportPath
	}
	tpkg, err := conf.Check(basePath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", e.ImportPath, err)
	}
	return &Package{
		Path:         e.ImportPath,
		Fset:         fset,
		Files:        files,
		Types:        tpkg,
		TypesInfo:    info,
		HasTestFiles: hasTests,
	}, nil
}

// newCachedImporter imports packages from the export data files that
// `go list -export` reported, caching by path.
func newCachedImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return importerFunc(func(path string) (*types.Package, error) {
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return gc.Import(path)
	})
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
