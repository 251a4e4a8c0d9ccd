package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"time"
)

// RunStats accumulates per-analyzer wall time across Run calls
// (anufsvet -debug=t reports it). May be nil.
type RunStats struct {
	Elapsed map[string]time.Duration
}

func (s *RunStats) add(name string, d time.Duration) {
	if s == nil {
		return
	}
	if s.Elapsed == nil {
		s.Elapsed = map[string]time.Duration{}
	}
	s.Elapsed[name] += d
}

// Run executes the analyzers over one loaded package and returns the
// surviving diagnostics: every violation the analyzers reported, minus
// those suppressed by a justified //anufs:allow, plus hygiene
// diagnostics for annotations that are malformed or suppress nothing.
// Diagnostics come back sorted by position. stats, when non-nil,
// accumulates per-analyzer wall time.
func Run(pkg *Package, analyzers []*Analyzer, stats *RunStats) ([]Diagnostic, error) {
	var diags []Diagnostic
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
		start := time.Now()
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Report: func(d Diagnostic) {
				d.Analyzer = a.Name
				diags = append(diags, d)
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
		stats.add(a.Name, time.Since(start))
	}
	registered := map[string]bool{}
	for _, a := range Registry() {
		registered[a.Name] = true
	}
	allows := parseAllows(pkg.Fset, pkg.Files)
	diags = applyAllows(pkg.Fset, allows, ran, registered, diags)
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// Format renders one diagnostic the way vet does: file:line:col: message.
func Format(fset *token.FileSet, d Diagnostic) string {
	return fmt.Sprintf("%s: %s (%s)", fset.Position(d.Pos), d.Message, d.Analyzer)
}
