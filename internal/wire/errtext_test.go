package wire

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// errTextMatchers are the strings functions that, handed error text, decide
// something from it.
var errTextMatchers = map[string]bool{
	"Contains": true, "ContainsAny": true, "ContainsRune": true, "ContainsFunc": true,
	"HasPrefix": true, "HasSuffix": true, "EqualFold": true,
	"Index": true, "LastIndex": true, "Count": true,
}

// TestNoBranchOnErrorText: no non-test code in the module decides anything
// from err.Error() text — comparing it, switching on it, or handing it to a
// strings matcher, directly or through a local assigned from it. Messages
// are documentation, not protocol: a wire-visible decision rides
// Response.Code (CodedError, ErrorCode), a local one a sentinel with
// errors.Is or errors.As. The walk covers what ./... does: it skips testdata,
// dot and underscore directories, and nested modules (cmd/bench).
func TestNoBranchOnErrorText(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				for _, pos := range errTextBranches(fn.Body) {
					t.Errorf("%s: branches on err.Error() text; use wire.ErrorCode or a sentinel with errors.Is/As", fset.Position(pos))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// errTextBranches returns where body compares, switches on or string-matches
// the text of an x.Error() call, or of a local it assigned one to.
func errTextBranches(body *ast.BlockStmt) []token.Pos {
	tainted := map[string]bool{} // locals by name: a shadowed one over-reports, never misses
	ast.Inspect(body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			for i, rhs := range as.Rhs {
				if id, ok := as.Lhs[i].(*ast.Ident); ok && isErrorCall(rhs) {
					tainted[id.Name] = true
				}
			}
		}
		return true
	})
	isText := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return isErrorCall(e) || ok && tainted[id.Name]
	}
	var found []token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || !errTextMatchers[sel.Sel.Name] {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "strings" {
				return true
			}
			for _, arg := range n.Args {
				if isText(arg) {
					found = append(found, n.Pos())
					break
				}
			}
		case *ast.BinaryExpr:
			if (n.Op == token.EQL || n.Op == token.NEQ) && (isText(n.X) || isText(n.Y)) {
				found = append(found, n.Pos())
			}
		case *ast.SwitchStmt:
			if n.Tag != nil && isText(n.Tag) {
				found = append(found, n.Pos())
			}
		}
		return true
	})
	return found
}

// isErrorCall reports whether e is a call x.Error() with no arguments.
func isErrorCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Error"
}
