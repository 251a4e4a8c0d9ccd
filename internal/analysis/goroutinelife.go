package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// GoroutineLife requires every goroutine launched in the long-running
// subsystems (fleet, journal, live, replica, sdk, wire) to be tied to a
// shutdown path.
// PRs 7–9 grew these packages goroutine-heavy — failover pollers, WFQ
// owner queues, trace fan-out, connection health checks — and a loop
// with no stop signal outlives Close, keeps its daemon reachable from
// the scheduler forever, and turns tests and failover drills flaky.
//
// The check is lexical: a `go` statement whose body (a function literal
// or a same-package function) contains an unbounded `for` loop is a
// diagnostic unless the loop has a recognizable exit:
//
//   - a receive from a stop-named channel (done/stop/quit/close/
//     shutdown/cancel/ctx...), directly or in a select case;
//   - a return or break guarded by an if whose condition reads an
//     error-typed or bool-typed value or a stop-named identifier — the
//     io-loop idiom `if err != nil { return }` / `if !ok { return }`,
//     where connection teardown is the stop signal;
//   - ranging over a channel (terminates when the channel closes) is
//     exempt by construction: only `for { ... }` loops are suspect.
var GoroutineLife = &Analyzer{
	Name: "goroutinelife",
	Doc: "goroutines in fleet/journal/live/replica/sdk/wire must tie unbounded loops to a " +
		"shutdown path (stop channel, ctx.Done, or error/ok-guarded exit)",
	Run: runGoroutineLife,
}

// stopNameRE matches identifiers that conventionally carry a shutdown
// signal. "clos" covers close/closed/closing; "shut" covers shutdown.
var stopNameRE = regexp.MustCompile(`(?i)done|stop|quit|clos|shut|ctx|cancel|exit`)

func runGoroutineLife(pass *Pass) error {
	if !pathHasSuffix(pass.Pkg.Path(),
		"internal/fleet", "internal/journal", "internal/live", "internal/replica", "internal/sdk", "internal/wire") {
		return nil
	}
	// Map same-package functions to their declarations so `go m.run()`
	// is checked through the named body, wherever it lives.
	decls := map[types.Object]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				if obj := pass.TypesInfo.Defs[fn.Name]; obj != nil {
					decls[obj] = fn
				}
			}
		}
	}
	reported := map[token.Pos]bool{} // a decl launched from two sites reports once
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			body := goBody(pass, decls, gs)
			if body == nil {
				return true
			}
			for _, loop := range unboundedLoops(body) {
				if loopHasStop(pass, loop) || reported[loop.Pos()] {
					continue
				}
				reported[loop.Pos()] = true
				pass.Reportf(loop.Pos(),
					"unbounded loop in goroutine has no shutdown path; select on a stop/done channel or ctx.Done, or guard an exit on the connection error (or //anufs:allow goroutinelife <why>)")
			}
			return true
		})
	}
	return nil
}

// goBody resolves the body a go statement runs: a function literal's
// body, or the declaration of a same-package function or method.
// Cross-package and interface targets are not resolvable and are
// skipped — their loops are the defining package's responsibility.
func goBody(pass *Pass, decls map[types.Object]*ast.FuncDecl, gs *ast.GoStmt) *ast.BlockStmt {
	switch fun := ast.Unparen(gs.Call.Fun).(type) {
	case *ast.FuncLit:
		return fun.Body
	case *ast.Ident:
		if d, ok := decls[pass.TypesInfo.Uses[fun]]; ok {
			return d.Body
		}
	case *ast.SelectorExpr:
		if d, ok := decls[pass.TypesInfo.Uses[fun.Sel]]; ok {
			return d.Body
		}
	}
	return nil
}

// unboundedLoops collects `for { ... }` loops in body, not descending
// into nested function literals (a nested `go` launch is its own
// statement and is checked separately; a nested closure called
// synchronously inherits the caller's lifecycle and is out of scope for
// this lexical check).
func unboundedLoops(body *ast.BlockStmt) []*ast.ForStmt {
	var loops []*ast.ForStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if fs, ok := n.(*ast.ForStmt); ok && fs.Cond == nil {
			loops = append(loops, fs)
		}
		return true
	})
	return loops
}

// loopHasStop reports whether the loop has a recognizable shutdown
// exit.
func loopHasStop(pass *Pass, loop *ast.ForStmt) bool {
	found := false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			// A receive from a stop-named channel, anywhere: bare,
			// in a select case, or in an assignment.
			if n.Op == token.ARROW && mentionsStopName(n.X) {
				found = true
			}
		case *ast.IfStmt:
			if condSignalsExit(pass, n.Cond) && branchExits(n) {
				found = true
			}
		}
		return true
	})
	return found
}

// mentionsStopName reports whether the expression's identifiers include
// a stop-named one (covers c.stopCh, ctx.Done(), r.quit, t.closing).
func mentionsStopName(e ast.Expr) bool {
	hit := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && stopNameRE.MatchString(id.Name) {
			hit = true
		}
		return !hit
	})
	return hit
}

// condSignalsExit reports whether an if condition plausibly reacts to
// teardown: it reads an error-typed value, a bool-typed value (the
// `ok` of a receive or a closed flag), or a stop-named identifier.
// Pure arithmetic conditions do not count — a counter bound is not a
// shutdown path.
func condSignalsExit(pass *Pass, cond ast.Expr) bool {
	hit := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if hit {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if stopNameRE.MatchString(n.Name) {
				hit = true
				return false
			}
			hit = exitType(pass.TypesInfo.TypeOf(n))
		case *ast.SelectorExpr:
			if stopNameRE.MatchString(n.Sel.Name) {
				hit = true
				return false
			}
			hit = exitType(pass.TypesInfo.TypeOf(n))
			if !hit {
				return true // keep walking into X
			}
		case *ast.CallExpr:
			hit = exitType(pass.TypesInfo.TypeOf(n))
			if !hit {
				return true
			}
		}
		return !hit
	})
	return hit
}

func exitType(t types.Type) bool {
	if t == nil {
		return false
	}
	if named, ok := t.(*types.Named); ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
		return true
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsBoolean != 0 {
		return true
	}
	if _, ok := t.Underlying().(*types.Interface); ok {
		// error is an interface; a comparison like err != nil types the
		// operand as the concrete error interface.
		return types.Implements(t, errorInterface())
	}
	return false
}

var errIface *types.Interface

func errorInterface() *types.Interface {
	if errIface == nil {
		errIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	}
	return errIface
}

// branchExits reports whether either branch of the if leaves the loop:
// a return, a break, or a goto.
func branchExits(ifs *ast.IfStmt) bool {
	exits := false
	check := func(n ast.Node) bool {
		if exits {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			exits = true
		case *ast.BranchStmt:
			if n.Tok == token.BREAK || n.Tok == token.GOTO {
				exits = true
			}
		}
		return !exits
	}
	ast.Inspect(ifs.Body, check)
	if ifs.Else != nil {
		ast.Inspect(ifs.Else, check)
	}
	return exits
}
