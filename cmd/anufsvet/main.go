// Command anufsvet is the repository's invariant checker: a
// multichecker over the custom analyzers in internal/analysis
// (simdeterminism, journalkinds, lockdiscipline,
// hotpathalloc, goroutinelife, errcode — plus the implicit
// allowhygiene checks on //anufs:allow annotations).
//
// It runs two ways:
//
//	anufsvet ./...                     # standalone, like staticcheck
//	go vet -vettool=$(which anufsvet) ./...   # as a vet tool (CI)
//
// Standalone mode loads packages (tests included) via `go list -export`
// — once per run, shared across all analyzers — and prints every
// diagnostic; vettool mode speaks the `go vet` unit protocol and shares
// its build cache, including .vetx fact files for the interprocedural
// hot-path analysis. Suppress a diagnostic at the site with a justified
// annotation:
//
//	//anufs:allow <analyzer> <reason...>
//
// Bare, unknown, or unused allows are themselves diagnostics.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"anufs/internal/analysis"
)

func main() {
	analyzers := analysis.Registry()
	// The vet protocol (-V=full, -flags, unit.cfg) exits the process
	// when it recognizes the arguments; otherwise fall through to
	// standalone mode.
	analysis.VetMain(os.Args[1:], analyzers)

	fs := flag.NewFlagSet("anufsvet", flag.ExitOnError)
	list := fs.Bool("list", false, "list the analyzers and exit")
	debug := fs.String("debug", "", "debug flags: 't' reports per-analyzer wall time")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: anufsvet [packages]\n   or: go vet -vettool=$(which anufsvet) [packages]\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loadStart := time.Now()
	pkgs, err := analysis.Load(".", patterns...)
	loadTime := time.Since(loadStart)
	if err != nil {
		fmt.Fprintf(os.Stderr, "anufsvet: %v\n", err)
		os.Exit(2)
	}
	// Packages arrive in dependency order, facts-only dependencies
	// included, so each unit's interprocedural lookups are already
	// populated when the analyzers reach it.
	store := analysis.NewFactStore()
	stats := &analysis.RunStats{}
	bad := 0
	for _, pkg := range pkgs {
		if pkg.FactsOnly {
			analysis.ComputeFacts(pkg, analyzers, store, stats)
			continue
		}
		diags, err := analysis.Run(pkg, analyzers, store, stats)
		if err != nil {
			fmt.Fprintf(os.Stderr, "anufsvet: %v\n", err)
			os.Exit(2)
		}
		for _, d := range diags {
			fmt.Println(analysis.Format(pkg.Fset, d))
			bad++
		}
	}
	if *debug == "t" {
		names := make([]string, 0, len(stats.Elapsed))
		for name := range stats.Elapsed {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool {
			return stats.Elapsed[names[i]] > stats.Elapsed[names[j]]
		})
		fmt.Fprintf(os.Stderr, "anufsvet: load+typecheck %v (one go list, shared by all analyzers)\n", loadTime.Round(time.Millisecond))
		for _, name := range names {
			fmt.Fprintf(os.Stderr, "anufsvet: %-16s %v\n", name, stats.Elapsed[name].Round(time.Millisecond))
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "anufsvet: %d invariant violation(s)\n", bad)
		os.Exit(1)
	}
}
