// Package analysis is a small, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis vocabulary, built so the repository can
// enforce its own invariants (determinism of the simulation kernel, lock
// discipline, goroutine shutdown paths, typed error codes) with
// machine-checked analyzers even in environments without network access
// to x/tools. Every analyzer is intraprocedural: it reads one package's
// syntax and types, nothing about its dependencies but their export data.
// Contracts a test can measure are tests instead — allocation-free hot
// paths are testing.AllocsPerRun rows beside the code, and every journal
// entry kind replaying is journal.TestEveryKindReplays.
//
// The shape mirrors x/tools on purpose — an Analyzer has a Name, a Doc
// string and a Run function over a Pass — so the analyzers would port to
// the upstream framework with only an import change. Three drivers exist:
//
//   - Load (load.go) shells out to `go list -export` and typechecks
//     packages from source against compiler export data, for standalone
//     runs and tests.
//   - Vet (vet.go) speaks the `go vet -vettool` JSON config protocol, so
//     cmd/anufsvet plugs into the build cache like any vet tool.
//   - analysistest (subpackage) runs one analyzer over a fixture module
//     and compares diagnostics against `// want` comments.
//
// Every diagnostic can be suppressed at the site with a justified
// annotation:
//
//	//anufs:allow <analyzer> <reason...>
//
// placed on the offending line or the line above. The reason is
// mandatory; a bare allow, an allow naming an unknown analyzer, and an
// allow that suppresses nothing are themselves diagnostics, so the
// escape hatch cannot silently rot.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //anufs:allow annotations. It must be a valid Go identifier.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass provides one analyzer with one typechecked package and a sink
// for diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one diagnostic. The driver applies //anufs:allow
	// suppression after the analyzer runs, so Run should report every
	// violation unconditionally.
	Report func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Pos     token.Pos
	Message string
	// Analyzer is filled in by the driver.
	Analyzer string
}
