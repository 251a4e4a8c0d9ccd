package wire

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"
	"time"

	"anufs/internal/live"
	"anufs/internal/sharedisk"
)

// TestEveryOpConstantHasARow reads the Op constants out of wire.go itself,
// so declaring an op without adding it to Ops fails here — and an op with
// no row has no wire code, which means no client can send it.
func TestEveryOpConstantHasARow(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "wire.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := 0
	ast.Inspect(file, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		if id, ok := spec.Type.(*ast.Ident); !ok || id.Name != "Op" {
			return true
		}
		for i, name := range spec.Names {
			value, err := strconv.Unquote(spec.Values[i].(*ast.BasicLit).Value)
			if err != nil {
				t.Fatalf("%s: %v", name.Name, err)
			}
			declared++
			if _, ok := Lookup(Op(value)); !ok {
				t.Errorf("%s (%q) has no row in Ops", name.Name, value)
			}
		}
		return true
	})
	if declared != len(Ops) {
		t.Errorf("wire.go declares %d ops, Ops has %d rows", declared, len(Ops))
	}
}

// TestOpTableIsWellFormed: codes are what the codec indexes by, so each is
// non-zero and used once; each row has a class; gating and batching only
// make sense for an op routed by file set.
func TestOpTableIsWellFormed(t *testing.T) {
	codes := map[byte]Op{}
	names := map[Op]bool{}
	for _, info := range Ops {
		if info.Code == 0 {
			t.Errorf("%s: code 0 means \"no row\"", info.Op)
		}
		if prev, dup := codes[info.Code]; dup {
			t.Errorf("%s and %s share code %d", prev, info.Op, info.Code)
		}
		codes[info.Code] = info.Op
		if names[info.Op] {
			t.Errorf("%s has two rows", info.Op)
		}
		names[info.Op] = true
		if info.Class < ClassOwner || info.Class > ClassMap {
			t.Errorf("%s: class %d is not a routing class", info.Op, info.Class)
		}
		if (info.Gated || info.Batchable) && info.Class != ClassOwner {
			t.Errorf("%s: gated or batchable but not owner-routed", info.Op)
		}
	}
}

// recordingFleet is a FleetHandler that admits everything and notes what
// the server handed it.
type recordingFleet struct{ gated, fleet []Op }

func (f *recordingFleet) Gate(op Op, fileSet string) (func(), error) {
	f.gated = append(f.gated, op)
	return func() {}, nil
}

func (f *recordingFleet) Fleet(req Request) Response {
	f.fleet = append(f.fleet, req.Op)
	return Response{}
}

// TestServerHandlesEveryOp sends the server one request per row. A row
// added without a handler answers "has no handler"; an op of a fleet class
// must reach the FleetHandler, a gated one must pass its gate first, and
// nothing else may touch either.
func TestServerHandlesEveryOp(t *testing.T) {
	disk := sharedisk.NewStore(0)
	if err := disk.CreateFileSet("fs00"); err != nil {
		t.Fatal(err)
	}
	cfg := liveTestConfig()
	cfg.RetryBudget = time.Millisecond
	cl, err := live.NewCluster(cfg, disk, map[int]float64{0: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	srv := NewServer(cl)
	for _, info := range Ops {
		fleet := &recordingFleet{}
		srv.SetFleet(fleet)
		resp := srv.handle(1, Request{Op: info.Op, FileSet: "fs00", Path: "/a", Record: &sharedisk.Record{},
			Batch: []BatchItem{{Op: OpStat, Path: "/a"}}})
		if strings.Contains(resp.Err, "no handler") || strings.Contains(resp.Err, "unknown op") {
			t.Errorf("%s: %s", info.Op, resp.Err)
		}
		if got := len(fleet.fleet) == 1; got != info.Class.Fleet() {
			t.Errorf("%s (class %d): handed to the fleet handler = %v", info.Op, info.Class, got)
		}
		// A batch gates each file set it touches under its own op.
		if got := len(fleet.gated) == 1; got != (info.Gated || info.Op == OpBatch) {
			t.Errorf("%s: passed the fleet gate = %v, table says gated = %v", info.Op, got, info.Gated)
		}
	}
	if resp := srv.handle(1, Request{Op: "bogus"}); !strings.Contains(resp.Err, "unknown op") {
		t.Errorf("an op outside the table answered %+v", resp)
	}
}
