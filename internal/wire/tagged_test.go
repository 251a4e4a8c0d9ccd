package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"

	"anufs/internal/live"
	"anufs/internal/sharedisk"
)

func TestFrameHeaderRoundTrip(t *testing.T) {
	var hdr [FrameHeaderSize]byte
	PutFrameHeader(hdr[:], FrameResponse, 0xdeadbeefcafe, 12345)
	kind, tag, n, err := ParseFrameHeader(hdr[:], MaxFramePayload)
	if err != nil {
		t.Fatal(err)
	}
	if kind != FrameResponse || tag != 0xdeadbeefcafe || n != 12345 {
		t.Fatalf("ParseFrameHeader = kind %d tag %#x n %d", kind, tag, n)
	}
}

func TestFrameHeaderRejections(t *testing.T) {
	good := func() []byte {
		var hdr [FrameHeaderSize]byte
		PutFrameHeader(hdr[:], FrameRequest, 7, 10)
		return hdr[:]
	}
	cases := []struct {
		name   string
		mutate func([]byte)
		want   error
	}{
		{"bad magic", func(h []byte) { h[0] = 'x' }, ErrBadFrameHeader},
		{"bad version", func(h []byte) { h[2] = 99 }, ErrBadFrameHeader},
		{"bad kind", func(h []byte) { h[3] = 9 }, ErrBadFrameKind},
		{"oversize", func(h []byte) { h[4], h[5], h[6], h[7] = 0xff, 0xff, 0xff, 0xff }, ErrFrameTooLarge},
		{"one over the ceiling", func(h []byte) { PutFrameHeader(h, FrameRequest, 7, MaxFramePayload+1) }, ErrFrameTooLarge},
	}
	for _, tc := range cases {
		h := good()
		tc.mutate(h)
		if _, _, _, err := ParseFrameHeader(h, MaxFramePayload); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	if _, _, _, err := ParseFrameHeader(good()[:8], MaxFramePayload); !errors.Is(err, ErrBadFrameHeader) {
		t.Errorf("short header: err = %v", err)
	}
	// The ceiling is the connection's, not the protocol's: the same header
	// passes under a higher one.
	h := good()
	PutFrameHeader(h, FrameRequest, 7, MaxFramePayload+1)
	if _, _, n, err := ParseFrameHeader(h, 2*MaxFramePayload); err != nil || n != MaxFramePayload+1 {
		t.Errorf("under a higher ceiling: n %d err %v", n, err)
	}
}

func TestFrameWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf, MaxFramePayload)
	payloads := [][]byte{[]byte(`{"id":1}`), []byte(``), bytes.Repeat([]byte("x"), 100000)}
	for i, p := range payloads {
		if err := fw.WriteFrame(FrameRequest, uint64(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&buf, MaxFramePayload)
	for i, p := range payloads {
		kind, tag, got, err := fr.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if kind != FrameRequest || tag != uint64(i+1) || !bytes.Equal(got, p) {
			t.Fatalf("frame %d: kind %d tag %d len %d", i, kind, tag, len(got))
		}
	}
	if err := fw.WriteFrame(FrameRequest, 1, make([]byte, MaxFramePayload+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize write err = %v", err)
	}
}

// TestFramingAllocFree holds the framing primitives and the client's send
// path to zero allocations per frame once their buffers are warm: header
// packing, a frame written through a FrameWriter, a frame read into a
// FrameReader's reused payload buffer, and Client.sendRequest encoding and
// flushing a durable batch.
func TestFramingAllocFree(t *testing.T) {
	var hdr [FrameHeaderSize]byte
	payload := make([]byte, 64)
	fw := NewFrameWriter(io.Discard, MaxFramePayload)
	var frame bytes.Buffer
	if err := NewFrameWriter(&frame, MaxFramePayload).WriteFrame(FrameResponse, 9, payload); err != nil {
		t.Fatal(err)
	}
	src := bytes.NewReader(frame.Bytes())
	fr := NewFrameReader(src, MaxFramePayload)
	c := &Client{bw: bufio.NewWriter(io.Discard)}
	c.fw = NewFrameWriter(c.bw, MaxFramePayload)
	req := hotShapes().batch
	for _, row := range []struct {
		name string
		op   func() error
	}{
		{"PutFrameHeader", func() error { PutFrameHeader(hdr[:], FrameRequest, 7, len(payload)); return nil }},
		{"ParseFrameHeader", func() error { _, _, _, err := ParseFrameHeader(hdr[:], MaxFramePayload); return err }},
		{"FrameWriter.WriteFrame", func() error { return fw.WriteFrame(FrameRequest, 7, payload) }},
		{"FrameReader.ReadFrame", func() error {
			src.Reset(frame.Bytes())
			_, _, _, err := fr.ReadFrame()
			return err
		}},
		{"Client.sendRequest", func() error { return c.sendRequest(7, &req) }},
	} {
		if err := row.op(); err != nil { // warms the reused buffers
			t.Fatalf("%s: %v", row.name, err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := row.op(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", row.name, n)
		}
	}
}

// frameConn dials addr and returns the raw framing primitives — the
// lowest-level client, so a test exercises the protocol rather than
// Client's conveniences.
func frameConn(t *testing.T, addr string) (net.Conn, *FrameWriter, *FrameReader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn, NewFrameWriter(conn, MaxFramePayload), NewFrameReader(conn, MaxFramePayload)
}

// reqBody encodes a request body the way Client does.
func reqBody(t *testing.T, req Request) []byte {
	t.Helper()
	payload, ok := AppendRequest(nil, &req)
	if !ok {
		t.Fatalf("request %+v has no encoding", req)
	}
	return payload
}

// respOf decodes a response body the way Client does.
func respOf(t *testing.T, payload []byte) Response {
	t.Helper()
	var resp Response
	if !new(Decoder).DecodeResponse(payload, &resp) {
		t.Fatalf("malformed response body %x", payload)
	}
	return resp
}

func TestPipelining(t *testing.T) {
	c, _ := startServer(t, 1)
	_, fw, fr := frameConn(t, c.conn.RemoteAddr().String())
	// Send N requests back to back without reading a single response —
	// only a pipelined server can answer them all.
	const n = 32
	for i := 1; i <= n; i++ {
		req := Request{ID: uint64(i), Op: OpStat, FileSet: "fs00", Path: "/missing"}
		if err := fw.WriteFrame(FrameRequest, uint64(i), reqBody(t, req)); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[uint64]bool{}
	for i := 0; i < n; i++ {
		kind, tag, payload, err := fr.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if kind != FrameResponse {
			t.Fatalf("frame kind = %d", kind)
		}
		resp := respOf(t, payload)
		if !strings.Contains(resp.Err, "no such path") {
			t.Fatalf("tag %d: err = %q", tag, resp.Err)
		}
		if seen[tag] {
			t.Fatalf("tag %d answered twice", tag)
		}
		seen[tag] = true
	}
	if len(seen) != n {
		t.Fatalf("answered %d distinct tags, want %d", len(seen), n)
	}
}

// gatedFleet is a FleetHandler whose takeover and adopt announce their
// arrival and then block until released — the slow control-plane calls a
// pipelined connection must not let head-of-line-block a heartbeat.
type gatedFleet struct{ arrived, release chan struct{} }

func (g *gatedFleet) Gate(Op, string) (func(), error) { return func() {}, nil }

func (g *gatedFleet) Fleet(req Request) Response {
	if req.Op == OpTakeover || req.Op == OpAdopt {
		g.arrived <- struct{}{}
		<-g.release
	}
	return Response{Epoch: 7}
}

// TestControlPlaneCallsCompleteOutOfOrder: a takeover and an adopt are
// being served on one Client's connection when a heartbeat is sent behind
// them; the heartbeat's answer overtakes both.
func TestControlPlaneCallsCompleteOutOfOrder(t *testing.T) {
	cl, err := live.NewCluster(liveTestConfig(), sharedisk.NewStore(0), map[int]float64{0: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	srv := NewServer(cl)
	gate := &gatedFleet{arrived: make(chan struct{}), release: make(chan struct{})}
	srv.SetFleet(gate)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	slow := make(chan error, 2)
	go func() { slow <- c.Takeover(7, []string{"fs00"}, "", nil) }()
	go func() { slow <- c.Adopt(7, "fs00", nil, nil) }()
	<-gate.arrived
	<-gate.arrived
	if epoch, err := c.Heartbeat(1, "127.0.0.1:1", 1, ""); err != nil || epoch != 7 {
		t.Fatalf("heartbeat behind two blocked calls = epoch %d, %v", epoch, err)
	}
	if n := c.InFlight(); n != 2 {
		t.Fatalf("%d calls in flight after the heartbeat returned, want the 2 it overtook", n)
	}
	close(gate.release)
	for i := 0; i < 2; i++ {
		if err := <-slow; err != nil {
			t.Fatal(err)
		}
	}
}

func TestBatchOverWire(t *testing.T) {
	c, _ := startServer(t, 2)
	items := []BatchItem{
		{Op: OpCreate, Path: "/a", Record: &sharedisk.Record{Size: 1}},
		{Op: OpCreate, Path: "/b", Record: &sharedisk.Record{Size: 2}},
		{Op: OpStat, Path: "/a"},
		{Op: OpCreate, FileSet: "fs01", Path: "/c", Record: &sharedisk.Record{Size: 3}},
		{Op: OpStat, Path: "/missing"},
		{Op: OpRemove, Path: "/b"},
	}
	results, err := c.Batch("fs00", true, items)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != "" || results[1].Err != "" || results[3].Err != "" || results[5].Err != "" {
		t.Fatalf("batch writes failed: %+v", results)
	}
	if results[2].Err != "" || results[2].Record == nil || results[2].Record.Size != 1 {
		t.Fatalf("batch stat = %+v", results[2])
	}
	if results[4].Err == "" || !strings.Contains(results[4].Err, "no such path") {
		t.Fatalf("batch stat-miss = %+v", results[4])
	}
	// Cross-file-set item landed in its own file set.
	if rec, err := c.Stat("fs01", "/c"); err != nil || rec.Size != 3 {
		t.Fatalf("cross-fs item: %+v, %v", rec, err)
	}
	// The removed record is gone.
	if _, err := c.Stat("fs00", "/b"); err == nil {
		t.Fatal("removed record still present")
	}
}

func TestBatchValidation(t *testing.T) {
	c, _ := startServer(t, 1)
	if _, err := c.Batch("fs00", false, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := c.Batch("fs00", false, []BatchItem{{Op: OpLock, Path: "/a"}}); err == nil ||
		!strings.Contains(err.Error(), "not batchable") {
		t.Fatalf("lock in batch = %v", err)
	}
	if _, err := c.Batch("", false, []BatchItem{{Op: OpStat, Path: "/a"}}); err == nil ||
		!strings.Contains(err.Error(), "file set") {
		t.Fatalf("file-set-less batch = %v", err)
	}
	over := make([]BatchItem, MaxBatchItems+1)
	for i := range over {
		over[i] = BatchItem{Op: OpStat, Path: "/a"}
	}
	if _, err := c.Batch("fs00", false, over); err == nil ||
		!strings.Contains(err.Error(), "exceeds the limit") {
		t.Fatalf("oversized batch = %v", err)
	}
}

func TestPingOp(t *testing.T) {
	c, _ := startServer(t, 0)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}
