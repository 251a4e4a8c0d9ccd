package analysis

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// lockPkgs are the packages where a mutex held across a blocking
// operation deadlocks real traffic: the fleet router/authority, the
// live cluster's owner queues, the shared-disk store, and the journal
// and its shipper, whose locks a ship racing a commit must never wait
// behind.
var lockPkgs = []string{
	"internal/fleet",
	"internal/journal",
	"internal/live",
	"internal/replica",
	"internal/sharedisk",
}

// LockDiscipline flags blocking operations performed while a
// sync.Mutex/RWMutex is held: channel sends, wire.Client calls (network
// round-trips), and journal commit calls (group-commit fsync waits).
// The critical section is tracked lexically within one function: it
// opens at x.Lock()/x.RLock() and closes at the matching
// x.Unlock()/x.RUnlock() in the same statement list; `defer x.Unlock()`
// holds the lock to the end of the function. The analysis is
// deliberately intraprocedural — it catches the shape that has caused
// every real stall so far (a send or RPC slipped into an existing
// critical section), and intentional holds carry a justified
// //anufs:allow.
var LockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc: "no channel sends, wire.Client calls, or journal commits while " +
		"holding a mutex in fleet/journal/live/replica/sharedisk",
	Run: runLockDiscipline,
}

func runLockDiscipline(pass *Pass) error {
	if !pathHasSuffix(pass.Pkg.Path(), lockPkgs...) {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				w := &lockWalker{pass: pass}
				w.stmtList(fn.Body.List, map[string]bool{})
			}
		}
	}
	return nil
}

type lockWalker struct {
	pass *Pass
}

// stmtList walks one statement list in order. held maps the printed
// receiver expression of each currently-held lock ("c.mu") to true; it
// is owned by the caller and mutated as Lock/Unlock pairs are crossed.
func (w *lockWalker) stmtList(stmts []ast.Stmt, held map[string]bool) {
	for _, s := range stmts {
		w.stmt(s, held)
	}
}

func (w *lockWalker) stmt(s ast.Stmt, held map[string]bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if recv, kind := w.lockCall(s.X); kind == "lock" {
			held[recv] = true
			return
		} else if kind == "unlock" {
			delete(held, recv)
			return
		}
		w.check(s.X, held)
	case *ast.DeferStmt:
		// defer x.Unlock() pins the lock for the rest of the function;
		// the deferred call itself runs after everything we walk, so it
		// is never a violation.
		if _, kind := w.lockCall(s.Call); kind != "" {
			return
		}
		w.check(s.Call, held)
	case *ast.SendStmt:
		if len(held) > 0 {
			w.report(s.Pos(), held, "channel send")
		}
		w.check(s.Chan, held)
		w.check(s.Value, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.check(e, held)
		}
		for _, e := range s.Lhs {
			w.check(e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.check(e, held)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.check(s.Cond, held)
		w.stmtList(s.Body.List, copyHeld(held))
		if s.Else != nil {
			w.stmt(s.Else, copyHeld(held))
		}
	case *ast.BlockStmt:
		w.stmtList(s.List, held)
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			w.check(s.Cond, held)
		}
		w.stmtList(s.Body.List, copyHeld(held))
	case *ast.RangeStmt:
		w.check(s.X, held)
		w.stmtList(s.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.check(s.Tag, held)
		}
		for _, cl := range s.Body.List {
			w.stmtList(cl.(*ast.CaseClause).Body, copyHeld(held))
		}
	case *ast.TypeSwitchStmt:
		for _, cl := range s.Body.List {
			w.stmtList(cl.(*ast.CaseClause).Body, copyHeld(held))
		}
	case *ast.SelectStmt:
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			if send, ok := cc.Comm.(*ast.SendStmt); ok && len(held) > 0 {
				w.report(send.Pos(), held, "channel send")
			}
			w.stmtList(cc.Body, copyHeld(held))
		}
	case *ast.GoStmt:
		// The goroutine body runs without the caller's locks.
		w.check(s.Call, map[string]bool{})
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	case *ast.DeclStmt:
		// const/var declarations: check initializers.
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.check(e, held)
					}
				}
			}
		}
	}
}

// lockCall classifies an expression as a Lock/RLock ("lock") or
// Unlock/RUnlock ("unlock") call on a sync.Mutex or sync.RWMutex, and
// returns the printed receiver expression.
func (w *lockWalker) lockCall(e ast.Expr) (recv string, kind string) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = "lock"
	case "Unlock", "RUnlock":
		kind = "unlock"
	default:
		return "", ""
	}
	obj := w.pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", ""
	}
	return printExpr(w.pass.Fset, sel.X), kind
}

// check inspects an expression subtree for blocking calls while locks
// are held. Function literals are walked with a fresh held set only when
// invoked inline; deferred/stored literals run later, outside our
// lexical window, so they are walked lock-free too (their own Lock calls
// still get tracked).
func (w *lockWalker) check(e ast.Expr, held map[string]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.stmtList(n.Body.List, map[string]bool{})
			return false
		case *ast.CallExpr:
			if len(held) == 0 {
				return true
			}
			if what := w.blockingCall(n); what != "" {
				w.report(n.Pos(), held, what)
			}
		}
		return true
	})
}

// blockingCall reports what kind of blocking operation the call is, or
// "" if it is not one the analyzer tracks.
func (w *lockWalker) blockingCall(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	obj, ok := w.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return ""
	}
	sig := obj.Type().(*types.Signature)
	if sig.Recv() == nil {
		return ""
	}
	recvType := sig.Recv().Type()
	if p, ok := recvType.(*types.Pointer); ok {
		recvType = p.Elem()
	}
	named, ok := recvType.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	pkgPath, typeName := named.Obj().Pkg().Path(), named.Obj().Name()
	switch {
	case pathHasSuffix(pkgPath, "internal/wire") && typeName == "Client":
		return "wire.Client." + obj.Name() + " network round-trip"
	case pathHasSuffix(pkgPath, "internal/journal") && typeName == "Journal" &&
		(strings.HasPrefix(obj.Name(), "Log") || strings.HasPrefix(obj.Name(), "Append")):
		return "journal commit (" + obj.Name() + " waits for group-commit fsync)"
	}
	return ""
}

func (w *lockWalker) report(pos token.Pos, held map[string]bool, what string) {
	var names []string
	for k := range held {
		names = append(names, k)
	}
	// Sort for deterministic messages; held sets are tiny.
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	w.pass.Reportf(pos, "%s while holding %s: blocking under a mutex stalls every waiter (unlock first or //anufs:allow lockdiscipline <why>)",
		what, strings.Join(names, ", "))
}

func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func printExpr(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return "?"
	}
	return buf.String()
}
