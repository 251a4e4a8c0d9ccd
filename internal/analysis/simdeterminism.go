package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// determinismPkgs are the packages whose outputs must be
// bit-reproducible: the discrete-event simulation kernel, the ANU
// placement algorithms, the adaptive mapper core and the hash family,
// on which the paper's results depend, and the journal, whose bytes
// must be a function of the operation history alone (a standby's log is
// compared with its primary's). Any wall-clock read, process-global
// randomness or map-ordered output in them silently breaks that.
var determinismPkgs = []string{
	"internal/desim",
	"internal/placement",
	"internal/core",
	"internal/hashfam",
	"internal/journal",
}

// forbiddenTimeFuncs are the wall-clock entry points of package time.
// Deterministic code takes its clock from the simulation kernel.
var forbiddenTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// SimDeterminism forbids nondeterminism sources inside the
// determinism-critical packages: wall-clock reads (time.Now and
// friends, and the sleep that goes round the runtime's timers,
// syscall.Nanosleep), the process-global math/rand stream (explicitly seeded
// *rand.Rand values via rand.New are fine), and iteration over maps,
// whose order varies run to run. Order-insensitive map loops carry a
// justified //anufs:allow.
var SimDeterminism = &Analyzer{
	Name: "simdeterminism",
	Doc: "forbid wall-clock, global math/rand, and map iteration in the " +
		"simulation, placement, mapper-core, hash, and journal packages, whose " +
		"outputs must be bit-reproducible",
	Run: runSimDeterminism,
}

func runSimDeterminism(pass *Pass) error {
	if !pathHasSuffix(pass.Pkg.Path(), determinismPkgs...) {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			// Tests may time themselves and shuffle inputs; the invariant
			// guards the package's own outputs.
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkDeterminismCall(pass, n)
			case *ast.RangeStmt:
				if t := pass.TypesInfo.TypeOf(n.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						pass.Reportf(n.Pos(),
							"map iteration order is nondeterministic; range over sorted keys (or //anufs:allow simdeterminism <why order cannot matter>)")
					}
				}
			}
			return true
		})
	}
	return nil
}

func checkDeterminismCall(pass *Pass, call *ast.CallExpr) {
	obj := calleeObject(pass, call)
	if obj == nil || obj.Pkg() == nil {
		return
	}
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		// Methods (e.g. (*rand.Rand).Intn on an explicitly seeded stream,
		// or the sim clock's own Now) are deterministic by construction.
		return
	}
	switch obj.Pkg().Path() {
	case "time":
		if forbiddenTimeFuncs[obj.Name()] {
			pass.Reportf(call.Pos(),
				"time.%s reads the wall clock; deterministic code must take time from the simulation clock", obj.Name())
		}
	case "syscall":
		if obj.Name() == "Nanosleep" {
			pass.Reportf(call.Pos(),
				"syscall.Nanosleep waits on the wall clock; deterministic code must take time from the simulation clock")
		}
	case "math/rand", "math/rand/v2":
		if !strings.HasPrefix(obj.Name(), "New") {
			pass.Reportf(call.Pos(),
				"rand.%s draws from the process-global stream; use an explicitly seeded *rand.Rand (internal/rng)", obj.Name())
		}
	}
}

// calleeObject resolves the object a call expression invokes, looking
// through selector and identifier callees.
func calleeObject(pass *Pass, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[fun.Sel]
	case *ast.Ident:
		return pass.TypesInfo.Uses[fun]
	}
	return nil
}

// isTestFile reports whether the file is a _test.go file.
func isTestFile(pass *Pass, f *ast.File) bool {
	return strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go")
}
