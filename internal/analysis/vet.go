package analysis

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"
)

// vetConfig mirrors the JSON config `go vet` hands a -vettool for each
// compilation unit (the unitchecker protocol).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// VetMain implements the `go vet -vettool` command-line protocol:
//
//	anufsvet -V=full     describe the executable for build caching
//	anufsvet -flags      describe analyzer flags in JSON
//	anufsvet unit.cfg    analyze one compilation unit
//
// It returns only for arguments it does not handle (so the caller can
// layer a standalone mode on top); protocol requests exit the process.
func VetMain(args []string, analyzers []*Analyzer) {
	if len(args) == 0 {
		return
	}
	switch {
	case args[0] == "-V=full" || args[0] == "-V":
		// The whole line is the tool ID `go vet` caches against, so it
		// embeds a content hash of this binary: rebuilding the tool
		// invalidates prior vet results.
		fmt.Printf("anufsvet version anufs-%s\n", selfHash())
		os.Exit(0)
	case args[0] == "-flags":
		// No analyzer flags; `go vet` requires valid JSON.
		fmt.Println("[]")
		os.Exit(0)
	case strings.HasSuffix(args[0], ".cfg"):
		if err := vetUnit(args[0], analyzers); err != nil {
			fmt.Fprintf(os.Stderr, "anufsvet: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
}

// selfHash hashes the running executable.
func selfHash() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// vetUnit analyzes one compilation unit described by a vet config file.
// Diagnostics go to stderr in vet's file:line:col format and flip the
// exit code via the returned error.
//
// `go vet` also runs the tool over a unit's dependencies (VetxOnly) to
// collect facts for later units. The analyzers export none, so such a
// unit only leaves the empty facts file the go command caches against.
func vetUnit(cfgFile string, analyzers []*Analyzer) error {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return err
	}
	cfg := new(vetConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		return fmt.Errorf("decoding %s: %v", cfgFile, err)
	}
	if err := writeVetx(cfg); err != nil || cfg.VetxOnly {
		return err
	}

	fset := token.NewFileSet()
	var files []*ast.File
	hasTests := false
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return nil
			}
			return err
		}
		if strings.HasSuffix(name, "_test.go") {
			hasTests = true
		}
		files = append(files, f)
	}

	compilerImp := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return compilerImp.Import(path)
	})
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	// The merged test unit is named "pkg [pkg.test]"; typecheck it under
	// the plain path so the analyzers' package matching sees through it.
	basePath := cfg.ImportPath
	if i := strings.Index(basePath, " ["); i >= 0 {
		basePath = basePath[:i]
	}
	conf := &types.Config{Importer: imp, GoVersion: cfg.GoVersion}
	tpkg, err := conf.Check(basePath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil
		}
		return fmt.Errorf("typecheck %s: %v", cfg.ImportPath, err)
	}

	pkg := &Package{
		Path:         cfg.ID,
		Fset:         fset,
		Files:        files,
		Types:        tpkg,
		TypesInfo:    info,
		HasTestFiles: hasTests,
	}
	diags, err := Run(pkg, analyzers, nil)
	if err != nil {
		return err
	}
	if len(diags) == 0 {
		return nil
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, Format(fset, d))
	}
	return fmt.Errorf("%d invariant violation(s) in %s", len(diags), cfg.ImportPath)
}

// writeVetx leaves the unit's (empty) facts file so the go command can
// cache the unit.
func writeVetx(cfg *vetConfig) error {
	if cfg.VetxOutput == "" {
		return nil
	}
	return os.WriteFile(cfg.VetxOutput, nil, 0o666)
}
