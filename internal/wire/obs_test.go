package wire

import (
	"strings"
	"testing"
	"time"

	"anufs/internal/live"
	"anufs/internal/sharedisk"
)

// TestRequestTracing drives typed operations and checks the full span
// pipeline: the server mints a trace ID, echoes it, and the trace's
// timeline (wire → queue-wait → apply) is retrievable over the wire.
func TestRequestTracing(t *testing.T) {
	c, cl := startServer(t, 2)
	if err := c.Create("fs00", "/traced", sharedisk.Record{Size: 7}); err != nil {
		t.Fatal(err)
	}
	trace := c.LastTrace()
	if trace == 0 {
		t.Fatal("server did not echo a trace ID")
	}
	spans, err := c.Trace(trace, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, sp := range spans {
		if sp.Trace != trace {
			t.Fatalf("span from wrong trace: %+v", sp)
		}
		names[sp.Name] = true
	}
	for _, want := range []string{"wire", "queue-wait", "apply"} {
		if !names[want] {
			t.Fatalf("trace %d missing %q span; got %v", trace, want, names)
		}
	}
	// The per-op histogram recorded the request.
	h := cl.Obs().Hist.Get("wire_request_seconds", `op="create"`)
	if h.Summarize().Count == 0 {
		t.Fatal("create latency histogram empty")
	}
	// Snapshot mode (trace 0) returns recent spans across traces.
	recent, err := c.Trace(0, 4)
	if err != nil || len(recent) == 0 {
		t.Fatalf("Trace(0, 4) = %d spans, %v", len(recent), err)
	}
}

// TestConnCounters feeds a malformed frame, a failing request, and a good
// request through one raw connection, then checks that both the aggregate
// wire counters and the per-connection breakdown account for all three —
// the details the server used to drop silently.
func TestConnCounters(t *testing.T) {
	c, _ := startServer(t, 1)
	addr := c.conn.RemoteAddr().String()
	raw, fw, fr := frameConn(t, addr)
	send := func(tag uint64, payload []byte) Response {
		if err := fw.WriteFrame(FrameRequest, tag, payload); err != nil {
			t.Fatal(err)
		}
		_, got, body, err := fr.ReadFrame()
		if err != nil || got != tag {
			t.Fatalf("no response to %x: tag %d, %v", payload, got, err)
		}
		return respOf(t, body)
	}

	stat := reqBody(t, Request{Op: OpStat, FileSet: "fs00", Path: "/missing"})
	if resp := send(1, stat[:len(stat)-3]); !strings.HasPrefix(resp.Err, "bad frame") {
		t.Fatalf("truncated body answered %+v", resp)
	}
	if resp := send(2, stat); resp.Err == "" {
		t.Fatal("stat of missing path succeeded")
	}
	if resp := send(3, reqBody(t, Request{Op: OpOwner, FileSet: "fs00"})); resp.Err != "" {
		t.Fatalf("owner failed: %s", resp.Err)
	}

	ws, conns, err := c.WireStats()
	if err != nil {
		t.Fatal(err)
	}
	if ws[CtrBadFrames] < 1 {
		t.Fatalf("bad frame not counted: %v", ws)
	}
	if ws[CtrErrors] < 1 {
		t.Fatalf("request error not counted: %v", ws)
	}
	if ws[CtrRequests] < 2 {
		t.Fatalf("requests not counted: %v", ws)
	}
	// The raw connection's own row must carry its bad frame and error.
	local := raw.LocalAddr().String()
	var row *ConnStat
	for i := range conns {
		if conns[i].Remote == local {
			row = &conns[i]
		}
	}
	if row == nil {
		t.Fatalf("no ConnStat for %s in %+v", local, conns)
	}
	if row.BadFrames != 1 || row.Errors != 1 || row.Requests != 2 {
		t.Fatalf("per-conn accounting wrong: %+v", *row)
	}
}

// slowGate holds every file-set op in its fleet gate for the slow
// threshold, so each one is a slow request.
type slowGate struct{}

func (slowGate) Gate(Op, string) (func(), error) {
	time.Sleep(DefaultSlowThreshold)
	return func() {}, nil
}

func (slowGate) Fleet(Request) Response { return Response{} }

// TestSlowRequestCounter: one request held past DefaultSlowThreshold counts
// as slow, once.
func TestSlowRequestCounter(t *testing.T) {
	disk := sharedisk.NewStore(0)
	if err := disk.CreateFileSet("fs00"); err != nil {
		t.Fatal(err)
	}
	cfg := live.DefaultConfig()
	cfg.Window = time.Hour
	cfg.OpCost = 0
	cl, err := live.NewCluster(cfg, disk, map[int]float64{0: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(cl)
	srv.SetFleet(slowGate{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		cl.Stop()
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Create("fs00", "/slow", sharedisk.Record{}); err != nil {
		t.Fatal(err)
	}
	ws, _, err := c.WireStats()
	if err != nil {
		t.Fatal(err)
	}
	if ws[CtrSlow] != 1 {
		t.Fatalf("one request held past the threshold counted %d slow requests: %v", ws[CtrSlow], ws)
	}
}
