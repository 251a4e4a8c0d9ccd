package wire

import (
	"bytes"
	"encoding/json"
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

// FuzzRequestDecode drives the server-side payload path — JSON decode plus
// dispatch — with arbitrary client bytes. A malformed or malicious frame
// must produce an error response (or be rejected), never a panic: one bad
// client must not take the daemon down.
func FuzzRequestDecode(f *testing.F) {
	seeds := []string{
		`{"id":1,"op":"stat","fileset":"fs00","path":"/a"}`,
		`{"id":2,"op":"create","fileset":"fs00","path":"/a","record":{"size":1}}`,
		`{"id":3,"op":"create-fileset","fileset":"other"}`,
		`{"id":4,"op":"list","fileset":"fs00","path":"/"}`,
		`{"id":5,"op":"lock","fileset":"fs00","path":"/a","client":1,"exclusive":true}`,
		`{"id":6,"op":"stats"}`,
		`{"id":7,"op":"sync"}`,
		`{"id":8,"op":"mount","prefix":"/mnt","fileset":"fs00"}`,
		`{"id":9,"op":"resolve","path":"/mnt/x"}`,
		`{"id":10,"op":"mapping"}`,
		`{"id":11,"op":"update","fileset":"fs00","path":"/a","record":null}`,
		`{"id":12,"op":"nope"}`,
		`{"id":13`,
		`not json at all`,
		`{"op":""}`,
		`{"id":18446744073709551615,"op":"stat","fileset":"` + strings.Repeat("x", 300) + `"}`,
		`[1,2,3]`,
		`{"id":1,"op":"pcreate","path":"` + strings.Repeat("/", 64) + `"}`,
		"\x00\x01\x02",
		`{"id":1,"op":"lock","client":-1}`,
	}
	srv := fuzzCluster(f)
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var req Request
		if err := json.Unmarshal(line, &req); err != nil {
			return // bad payload: the frame loop answers with an error response
		}
		resp := srv.serve(&connState{remote: "fuzz"}, req)
		if resp.ID != req.ID {
			t.Fatalf("response ID %d for request ID %d", resp.ID, req.ID)
		}
		// Whatever came back must be encodable, or the write path would die.
		if _, err := json.Marshal(resp); err != nil {
			t.Fatalf("unencodable response %+v: %v", resp, err)
		}
	})
}

// FuzzTaggedFrame drives the tagged-frame decoder with arbitrary bytes:
// framing must either parse cleanly or fail with a typed error — never
// panic, never return an out-of-range kind or an oversized payload. What
// does parse must survive a re-encode/re-parse round trip, so the reader
// and writer can never drift apart.
func FuzzTaggedFrame(f *testing.F) {
	frame := func(kind byte, tag uint64, payload string) []byte {
		buf := make([]byte, FrameHeaderSize+len(payload))
		PutFrameHeader(buf, kind, tag, len(payload))
		copy(buf[FrameHeaderSize:], payload)
		return buf
	}
	seeds := [][]byte{
		frame(FrameRequest, 1, `{"id":1,"op":"ping"}`),
		frame(FrameResponse, 42, `{"id":42}`),
		frame(FrameRequest, 7, ""),
		append(frame(FrameRequest, 1, `{"id":1}`), frame(FrameResponse, 2, `{"id":2}`)...),
		frame(FrameRequest, 1, `{"id":1}`)[:10],                          // truncated header
		{'x', 'F', 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},             // bad magic
		{'a', 'F', 9, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},             // bad version
		{'a', 'F', 1, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},             // bad kind
		{'a', 'F', 1, 1, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0}, // oversized
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
