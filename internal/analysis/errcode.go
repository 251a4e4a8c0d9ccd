package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ErrCode forbids branching on err.Error() text in non-test code:
// comparing the string, or feeding it to the strings matching
// functions. Error messages are documentation, not protocol — matching
// on a substring silently broke when a message was reworded (the
// internal/wire/fleet.go arriving check regressed exactly this way) or
// matched an unrelated error that happened to embed the phrase.
// Wire-visible decisions ride Response.Code via wire.CodedError /
// wire.ErrorCode; local decisions use typed sentinels with errors.Is /
// errors.As. Matching on a Response's Err *field* is fine — that is a
// string, not an error — as is logging or wrapping err.Error().
var ErrCode = &Analyzer{
	Name: "errcode",
	Doc: "no branching on err.Error() text in non-test code; use " +
		"wire.ErrorCode or typed sentinels (errors.Is/As)",
	Run: runErrCode,
}

// stringsMatchers are the strings functions whose use on error text
// constitutes a branch decision.
var stringsMatchers = map[string]bool{
	"Contains":     true,
	"ContainsAny":  true,
	"ContainsRune": true,
	"ContainsFunc": true,
	"HasPrefix":    true,
	"HasSuffix":    true,
	"EqualFold":    true,
	"Index":        true,
	"LastIndex":    true,
	"Count":        true,
}

func runErrCode(pass *Pass) error {
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkErrText(pass, fn.Body)
		}
	}
	return nil
}

func checkErrText(pass *Pass, body *ast.BlockStmt) {
	// Locals lexically assigned from err.Error() carry the taint:
	//	s := err.Error(); strings.Contains(s, ...)
	tainted := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if !isErrorTextCall(pass, rhs) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := pass.TypesInfo.Defs[id]; obj != nil {
					tainted[obj] = true
				} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
					tainted[obj] = true
				}
			}
		}
		return true
	})
	isErrText := func(e ast.Expr) bool {
		e = ast.Unparen(e)
		if isErrorTextCall(pass, e) {
			return true
		}
		if id, ok := e.(*ast.Ident); ok {
			return tainted[pass.TypesInfo.Uses[id]]
		}
		return false
	}
	report := func(pos token.Pos) {
		pass.Reportf(pos,
			"branching on err.Error() text is fragile; use wire.ErrorCode / a typed sentinel (errors.Is, errors.As) or //anufs:allow errcode <why>")
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok || !stringsMatchers[sel.Sel.Name] {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "strings" {
				return true
			}
			for _, arg := range n.Args {
				if isErrText(arg) {
					report(n.Pos())
					break
				}
			}
		case *ast.BinaryExpr:
			if n.Op != token.EQL && n.Op != token.NEQ {
				return true
			}
			if isErrText(n.X) || isErrText(n.Y) {
				report(n.Pos())
			}
		case *ast.SwitchStmt:
			if n.Tag != nil && isErrText(n.Tag) {
				report(n.Pos())
			}
		}
		return true
	})
}

// isErrorTextCall reports whether e is a call of the Error() string
// method on an error value.
func isErrorTextCall(pass *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Params().Len() != 0 || sig.Results().Len() != 1 {
		return false
	}
	if !isStringType(sig.Results().At(0).Type()) {
		return false
	}
	// Anything with Error() string IS an error; no need to prove the
	// receiver's static type implements the interface.
	return true
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
