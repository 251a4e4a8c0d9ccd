package wire

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"anufs/internal/live"
	"anufs/internal/sharedisk"
)

// fuzzCluster builds one small cluster per fuzz process. The retry budget
// is tiny: fuzzed requests routinely target unknown file sets, and the
// point is frame handling, not move-retry patience.
func fuzzCluster(f *testing.F) *Server {
	f.Helper()
	disk := sharedisk.NewStore(0)
	if err := disk.CreateFileSet("fs00"); err != nil {
		f.Fatal(err)
	}
	cfg := live.DefaultConfig()
	cfg.Window = time.Hour
	cfg.OpCost = 0
	cfg.RetryBudget = time.Millisecond
	cl, err := live.NewCluster(cfg, disk, map[int]float64{0: 1, 1: 2})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(cl.Stop)
	return NewServer(cl)
}

// seedRequests is one plausible request per row of the op table — what a
// client would send for the op — so both fuzzers start from every op's
// real shape.
func seedRequests() []Request {
	rec := &sharedisk.Record{Size: 1, Mode: 0o644, ModTime: time.Unix(1786105845, 5).UTC(), Owner: "fuzz"}
	reqs := make([]Request, 0, len(Ops))
	for _, info := range Ops {
		req := Request{Op: info.Op, Trace: 7}
		switch info.Class {
		case ClassOwner:
			req.FileSet, req.Path, req.Record, req.Client = "fs00", "/a", rec, 1
		case ClassBroadcast, ClassLocal:
			req.Prefix, req.FileSet, req.Path, req.Count = "/mnt", "fs00", "/mnt/x", 4
		case ClassAuthority:
			req.FileSet, req.Daemon, req.Volume, req.Policy, req.OpRate, req.Weight, req.MaxFileSets = "fs00", -1, "acme", "pack", 2.5, 3, 2
		case ClassMember:
			req.Epoch, req.Addr, req.Daemon, req.Speed, req.JournalDir = 3, "127.0.0.1:1", 2, 1.5, "/wal"
			req.FileSets, req.Map, req.Snap = []string{"fs00", "fs01"}, []byte("map"), []byte("snap")
		case ClassStandby:
			req.Daemon, req.SnapSeq, req.Reset = 1, 9, true
			req.Entries = []ShipEntry{{Seq: 8, Trace: 7, Payload: []byte{1, 2, 'f', 's'}}, {Seq: 9}}
		}
		if info.Op == OpBatch {
			req.Durable = true
			req.Batch = []BatchItem{{Op: OpCreate, Path: "/a", Record: rec, Trace: 9}, {Op: OpStat, FileSet: "fs00", Path: "/a"}}
		}
		reqs = append(reqs, req)
	}
	return reqs
}

// FuzzRequestDecode drives the server-side payload path — the one body
// decoder, dispatch, and the response encoder — with arbitrary client bytes.
// A malformed or malicious body must be refused or answered with an error,
// never panic: one bad client must not take the daemon down. What the
// decoder accepts must survive its own encoder.
func FuzzRequestDecode(f *testing.F) {
	for _, req := range seedRequests() {
		body, ok := AppendRequest(nil, &req)
		if !ok {
			f.Fatalf("%s has no encoding", req.Op)
		}
		f.Add(body)
	}
	stat := opsByName[OpStat].Code
	f.Add([]byte(nil))
	f.Add([]byte{0})
	f.Add([]byte("\x00\x01\x02"))
	f.Add([]byte{stat, reqFileSet, 0xff, 0xff, 0xff, 0xff, 0x0f, 'x'}) // a length past the end
	f.Add([]byte{stat, reqBatch, 0xff, 0x7f})                          // a count past the end
	f.Add([]byte{stat, reqTrace, 1, reqTrace, 2})                      // a repeated tag
	f.Add([]byte(`{"id":1,"op":"stat","fileset":"fs00","path":"/a"}`)) // what version 1 carried
	srv := fuzzCluster(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		var dec Decoder
		var req Request
		if !dec.DecodeRequest(body, &req) {
			return // bad body: the frame loop answers with an error response
		}
		// Compared as bytes, so a NaN float (which never equals itself) is no
		// false alarm.
		again, ok := AppendRequest(nil, &req)
		var back Request
		if !ok || !dec.DecodeRequest(again, &back) {
			t.Fatalf("decoded request does not survive the encoder: %+v (encoded %v)", req, ok)
		}
		if twice, _ := AppendRequest(nil, &back); !bytes.Equal(twice, again) {
			t.Fatalf("request changes on its second trip:\n %x\n %x", again, twice)
		}
		resp := srv.ep.serve(&connState{remote: "fuzz"}, req)
		// Whatever came back must be encodable, or the write path would die.
		out, ok := AppendResponse(nil, &resp)
		var got Response
		if !ok || !dec.DecodeResponse(out, &got) {
			t.Fatalf("response %+v: encoded %v, and the decoder then refused it", resp, ok)
		}
	})
}

// FuzzResponseDecode drives the client-side payload path with arbitrary
// server bytes: refused, or decoded to something the encoder reproduces.
func FuzzResponseDecode(f *testing.F) {
	srv := fuzzCluster(f)
	for _, req := range seedRequests() {
		resp := srv.ep.serve(&connState{remote: "fuzz"}, req)
		body, ok := AppendResponse(nil, &resp)
		if !ok {
			f.Fatalf("the reply to %s has no encoding: %+v", req.Op, resp)
		}
		f.Add(body)
	}
	f.Add([]byte{0})
	f.Add([]byte{respErr, 0xff, 0xff, 0xff, 0xff, 0x0f, 'x'})
	f.Add([]byte{respResults, 0xff, 0x7f})
	f.Add([]byte{respStats, 1, '{'})
	f.Add([]byte(`{"id":42}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var dec Decoder
		var resp Response
		if !dec.DecodeResponse(body, &resp) {
			return // bad body: readLoop fails the call the frame's tag names
		}
		_ = ResponseError(resp)
		again, ok := AppendResponse(nil, &resp)
		var back Response
		if !ok || !dec.DecodeResponse(again, &back) {
			t.Fatalf("decoded response does not survive the encoder: %+v (encoded %v)", resp, ok)
		}
		if twice, _ := AppendResponse(nil, &back); !bytes.Equal(twice, again) {
			t.Fatalf("response changes on its second trip:\n %x\n %x", again, twice)
		}
	})
}

// FuzzTaggedFrame drives the tagged-frame decoder with arbitrary bytes:
// framing must either parse cleanly or fail with a typed error — never
// panic, never return an out-of-range kind or an oversized payload. What
// does parse must survive a re-encode/re-parse round trip, so the reader
// and writer can never drift apart.
func FuzzTaggedFrame(f *testing.F) {
	frame := func(kind byte, tag uint64, payload []byte) []byte {
		buf := make([]byte, FrameHeaderSize+len(payload))
		PutFrameHeader(buf, kind, tag, len(payload))
		copy(buf[FrameHeaderSize:], payload)
		return buf
	}
	ping, _ := AppendRequest(nil, &Request{Op: OpPing})
	reply, _ := AppendResponse(nil, &Response{Trace: 42})
	seeds := [][]byte{
		frame(FrameRequest, 1, ping),
		frame(FrameResponse, 42, reply),
		frame(FrameRequest, 7, nil),
		append(frame(FrameRequest, 1, ping), frame(FrameResponse, 2, reply)...),
		frame(FrameRequest, 1, ping)[:10],                                           // truncated header
		{'x', 'F', frameVersion, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},             // bad magic
		{'a', 'F', 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},                        // the JSON-body version
		{'a', 'F', frameVersion, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},             // bad kind
		{'a', 'F', frameVersion, 1, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0}, // oversized
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data), MaxFramePayload)
		for {
			kind, tag, payload, err := fr.ReadFrame()
			if err != nil {
				return // typed rejection or short read; both fine
			}
			if kind != FrameRequest && kind != FrameResponse {
				t.Fatalf("decoder returned invalid kind %d", kind)
			}
			if len(payload) > MaxFramePayload {
				t.Fatalf("decoder returned %d-byte payload over the cap", len(payload))
			}
			var hdr [FrameHeaderSize]byte
			PutFrameHeader(hdr[:], kind, tag, len(payload))
			k2, t2, n2, err := ParseFrameHeader(hdr[:], MaxFramePayload)
			if err != nil || k2 != kind || t2 != tag || n2 != len(payload) {
				t.Fatalf("re-encode round trip: kind %d/%d tag %d/%d n %d/%d err %v",
					kind, k2, tag, t2, len(payload), n2, err)
			}
		}
	})
}

// TestGarbageFramesOverTCP feeds raw garbage through real connections:
// each is dropped at its first non-frame bytes, and the server keeps
// serving others.
func TestGarbageFramesOverTCP(t *testing.T) {
	c, _ := startServer(t, 1)
	addr := c.conn.RemoteAddr().String()
	payloads := []string{
		"garbage\n",
		"{\"id\":1,\"op\":\"stat\"\n",
		strings.Repeat("A", 128<<10) + "\n",
		"\x00\xff\xfe\n",
	}
	for _, p := range payloads {
		bad, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = bad.Write([]byte(p)) // the server may hang up mid-write
		_ = bad.SetReadDeadline(time.Now().Add(5 * time.Second))
		// EOF, or a reset when the close left garbage unread — not a timeout.
		if _, err := bad.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("after %.20q: read = %v, want the server to close the connection", p, err)
		}
		bad.Close()
	}
	ws, _, err := c.WireStats()
	if err != nil {
		t.Fatal(err)
	}
	if ws[CtrBadFrames] != int64(len(payloads)) {
		t.Fatalf("%d bad frames counted for %d garbage connections", ws[CtrBadFrames], len(payloads))
	}
	// A healthy client still gets service afterwards.
	for i := 0; i < 3; i++ {
		if err := c.Create("fs00", fmt.Sprintf("/ok%d", i), sharedisk.Record{Size: 1}); err != nil {
			t.Fatalf("server unhealthy after garbage frames: %v", err)
		}
	}
}
