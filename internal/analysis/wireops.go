package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// WireOps enforces protocol symmetry:
//
//  1. Inside the wire package, every Op* constant of the protocol's Op
//     type must appear both in a server dispatch switch (a case clause)
//     and in a client Request{Op: ...} literal. An op registered on one
//     end only is a request that can be sent but never answered — or an
//     opcode squatting in the server that no client exercises.
//  2. Inside the sdk package, every wire op sent in a Request literal
//     without a FileSet must have a case in the gateway demux switch: an
//     op with no file set cannot ride the default forward-by-owner route,
//     so a missing case means the sdk client can emit a request no
//     gateway will ever route.
//  3. The fleet dispatch tables must stay complete end to end: the wire
//     server's forward clause (the case listing OpMap and friends) and
//     the fleet member's Fleet method must each handle every fleet op
//     the protocol defines — membership ops included. An op missing
//     from either table is forwarded into a default arm and dies with
//     "unknown op" at runtime, which is exactly how a join or takeover
//     silently stops working.
var WireOps = &Analyzer{
	Name: "wireops",
	Doc: "wire ops must be registered in both the client encode and server " +
		"dispatch tables (and, for the sdk, in the gateway demux), and the " +
		"fleet forward clause and Fleet dispatch must cover every fleet op",
	Run: runWireOps,
}

// fleetDispatchOps is the canonical list of ops the wire server forwards
// to FleetHandler.Fleet: the map/handoff ops, the membership/failover
// ops (join, leave, heartbeat, takeover), and the volume-administration
// ops. Both dispatch tables — the server's forward clause and the fleet
// member's Fleet switch — must case every one of these that the wire
// package defines. Adding a fleet op means adding it HERE as well as to
// both tables.
var fleetDispatchOps = []string{
	"OpMap", "OpMapEpoch", "OpAdopt", "OpHandoff", "OpAssign",
	"OpRebalance", "OpJoin", "OpLeave", "OpHeartbeat", "OpTakeover",
	"OpVolumeCreate", "OpVolumeDelete", "OpVolumeList",
	"OpVolumeSetQuota", "OpVolumeSetPolicy",
}

func runWireOps(pass *Pass) error {
	if pathHasSuffix(pass.Pkg.Path(), "internal/wire") {
		checkOpSymmetry(pass)
		checkFleetForwardClause(pass)
	}
	if pathHasSuffix(pass.Pkg.Path(), "internal/sdk") {
		checkGatewayDemux(pass)
	}
	if pathHasSuffix(pass.Pkg.Path(), "internal/fleet") {
		checkFleetDispatch(pass)
	}
	return nil
}

func checkOpSymmetry(pass *Pass) {
	opType := pass.Pkg.Scope().Lookup("Op")
	if opType == nil {
		return
	}
	type opConst struct {
		obj      types.Object
		decl     ast.Node
		inClient bool // used in a Request{Op: ...} composite literal
		inServer bool // used in a switch case clause
	}
	var ops []*opConst
	byObj := map[types.Object]*opConst{}
	for ident, obj := range pass.TypesInfo.Defs {
		c, ok := obj.(*types.Const)
		if !ok || !strings.HasPrefix(ident.Name, "Op") || c.Type() != opType.Type() {
			continue
		}
		o := &opConst{obj: obj, decl: ident}
		ops = append(ops, o)
		byObj[obj] = o
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].decl.Pos() < ops[j].decl.Pos() })

	opOf := func(e ast.Expr) *opConst {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			return byObj[pass.TypesInfo.Uses[id]]
		}
		return nil
	}

	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SwitchStmt:
				for _, cl := range n.Body.List {
					for _, e := range cl.(*ast.CaseClause).List {
						if o := opOf(e); o != nil {
							o.inServer = true
						}
					}
				}
			case *ast.CompositeLit:
				t := pass.TypesInfo.TypeOf(n)
				if t == nil || !strings.HasSuffix(t.String(), ".Request") {
					return true
				}
				for _, el := range n.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Op" {
						if o := opOf(kv.Value); o != nil {
							o.inClient = true
						}
					}
				}
			}
			return true
		})
	}

	for _, o := range ops {
		if !o.inServer {
			pass.Reportf(o.decl.Pos(),
				"%s is not dispatched by any server switch: clients can send it but the server will never answer it", o.obj.Name())
		}
		if !o.inClient {
			pass.Reportf(o.decl.Pos(),
				"%s is never sent by a client Request literal: dead opcode or missing client method", o.obj.Name())
		}
	}
}

// wireOpOf resolves an expression to a constant of the wire package's Op
// type (referenced directly or as a wire.OpX selector); nil otherwise.
func wireOpOf(pass *Pass, e ast.Expr) types.Object {
	var id *ast.Ident
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = v
	case *ast.SelectorExpr:
		id = v.Sel
	default:
		return nil
	}
	obj := pass.TypesInfo.Uses[id]
	c, ok := obj.(*types.Const)
	if !ok {
		return nil
	}
	named, ok := c.Type().(*types.Named)
	if !ok || named.Obj().Name() != "Op" {
		return nil
	}
	if named.Obj().Pkg() == nil || !pathHasSuffix(named.Obj().Pkg().Path(), "internal/wire") {
		return nil
	}
	return obj
}

// fleetOpsDefined filters fleetDispatchOps down to the names the wire
// package actually defines, so fixtures (and protocol subsets) are held
// to the ops they declare rather than the full canonical list.
func fleetOpsDefined(wireScope *types.Scope) []string {
	var out []string
	for _, name := range fleetDispatchOps {
		if _, ok := wireScope.Lookup(name).(*types.Const); ok {
			out = append(out, name)
		}
	}
	return out
}

// checkFleetForwardClause verifies the wire server's fleet forward
// clause — the case listing OpMap alongside the other fleet ops — names
// every fleet op the package defines. An op left out of this clause
// falls through to the file-set dispatch path and fails with "unknown
// op" even though both protocol ends implement it.
func checkFleetForwardClause(pass *Pass) {
	want := fleetOpsDefined(pass.Pkg.Scope())
	if len(want) == 0 {
		return
	}
	anchor := pass.Pkg.Scope().Lookup("OpMap")
	if anchor == nil {
		return
	}
	// The forward clauses are the case clauses that contain OpMap; the
	// union of their ops must cover every defined fleet op.
	covered := map[string]bool{}
	var clausePos ast.Node
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok {
				return true
			}
			for _, cl := range sw.Body.List {
				cc := cl.(*ast.CaseClause)
				hasAnchor := false
				for _, e := range cc.List {
					if id, ok := ast.Unparen(e).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == anchor {
						hasAnchor = true
					}
				}
				if !hasAnchor {
					continue
				}
				if clausePos == nil {
					clausePos = cc
				}
				for _, e := range cc.List {
					if id, ok := ast.Unparen(e).(*ast.Ident); ok {
						if obj := pass.TypesInfo.Uses[id]; obj != nil {
							covered[obj.Name()] = true
						}
					}
				}
			}
			return true
		})
	}
	if clausePos == nil {
		return
	}
	var missing []string
	for _, name := range want {
		if !covered[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		pass.Reportf(clausePos.Pos(),
			"fleet forward clause misses %s: the server will answer \"unknown op\" for ops both ends implement",
			strings.Join(missing, ", "))
	}
}

// checkFleetDispatch verifies the fleet member's Fleet method cases
// every fleet op the wire package defines. The wire server forwards the
// whole fleet op set to Fleet; an op missing here reaches the method's
// default arm and dies at runtime — the failure mode that would silently
// break join, leave, heartbeat, or takeover.
func checkFleetDispatch(pass *Pass) {
	var wirePkg *types.Package
	for _, imp := range pass.Pkg.Imports() {
		if pathHasSuffix(imp.Path(), "internal/wire") {
			wirePkg = imp
		}
	}
	if wirePkg == nil {
		return
	}
	want := fleetOpsDefined(wirePkg.Scope())
	if len(want) == 0 {
		return
	}
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name != "Fleet" || fn.Recv == nil || fn.Body == nil {
				continue
			}
			handled := map[string]bool{}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				sw, ok := n.(*ast.SwitchStmt)
				if !ok {
					return true
				}
				for _, cl := range sw.Body.List {
					for _, e := range cl.(*ast.CaseClause).List {
						if o := wireOpOf(pass, e); o != nil {
							handled[o.Name()] = true
						}
					}
				}
				return true
			})
			var missing []string
			for _, name := range want {
				if !handled[name] {
					missing = append(missing, name)
				}
			}
			if len(missing) > 0 {
				pass.Reportf(fn.Pos(),
					"Fleet dispatch misses %s: the wire server forwards every fleet op here, so these die in the default arm",
					strings.Join(missing, ", "))
			}
		}
	}
}

// checkGatewayDemux enforces sdk/gateway symmetry: a Request literal built
// in the sdk with an Op but no FileSet must use an op the gateway demux
// (some switch case clause in the package) handles, because the default
// route — forward to the file set's owner — cannot carry it.
func checkGatewayDemux(pass *Pass) {
	demuxed := map[types.Object]bool{}
	type sent struct {
		obj types.Object
		pos ast.Node
	}
	var sends []sent
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SwitchStmt:
				for _, cl := range n.Body.List {
					for _, e := range cl.(*ast.CaseClause).List {
						if o := wireOpOf(pass, e); o != nil {
							demuxed[o] = true
						}
					}
				}
			case *ast.CompositeLit:
				t := pass.TypesInfo.TypeOf(n)
				if t == nil || !strings.HasSuffix(t.String(), ".Request") {
					return true
				}
				var op types.Object
				var opNode ast.Node
				hasFileSet := false
				for _, el := range n.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok {
						continue
					}
					switch key.Name {
					case "Op":
						op = wireOpOf(pass, kv.Value)
						opNode = kv.Value
					case "FileSet":
						hasFileSet = true
					}
				}
				if op != nil && !hasFileSet {
					sends = append(sends, sent{obj: op, pos: opNode})
				}
			}
			return true
		})
	}
	for _, s := range sends {
		if !demuxed[s.obj] {
			pass.Reportf(s.pos.Pos(),
				"%s is sent without a file set but has no gateway demux case: a gateway cannot route it (add a case to the route switch or set FileSet)", s.obj.Name())
		}
	}
}
