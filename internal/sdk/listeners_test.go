package sdk

import (
	"errors"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"anufs/internal/journal"
	"anufs/internal/obs"
	"anufs/internal/replica"
	"anufs/internal/wire"
)

// TestEveryListenerServesTheOneFrameLoop drives the three listeners of a
// deployment — daemon, gateway, standby — with the same inputs. All three
// serve through wire.Endpoint, so all three must refuse non-frame bytes
// and oversized length fields at once (never wait on them), count each as
// one bad frame, and keep a connection whose framing is intact even when a
// payload is garbage. And all three answer trace and trace-pull from
// their own registry alike: a traced request's edge span from the ring,
// and from the flight recorder too, under the process's node name and
// clock.
func TestEveryListenerServesTheOneFrameLoop(t *testing.T) {
	f := startFleet(t, 1)
	gw, gwAddr := startGateway(t, f)
	stats, err := testWireDial(f.daemons[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stats.Close()
	jnl, store, _, err := journal.Open(t.TempDir(), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	standbyObs := obs.New()
	recv, err := replica.NewReceiver(replica.ReceiverOptions{Journal: jnl, Images: store.Images(), Obs: standbyObs})
	if err != nil {
		t.Fatal(err)
	}
	standbyAddr, err := recv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Stop()

	listeners := []struct {
		name      string
		addr      string
		ceiling   int // the frame-payload ceiling this listener must enforce
		badFrames func() int64
		reg       *obs.Registry
		edge      string // the name of the listener's edge spans
	}{
		{"daemon", f.daemons[0].addr, wire.MaxFramePayload, func() int64 {
			ws, _, err := stats.WireStats()
			if err != nil {
				t.Fatal(err)
			}
			return ws[wire.CtrBadFrames]
		}, f.daemons[0].clus.Obs(), "wire"},
		{"gateway", gwAddr, wire.MaxFramePayload, func() int64 { return gw.cfg.Obs.Counter("gw_bad_frames").Load() }, gw.cfg.Obs, "gateway"},
		{"standby", standbyAddr, 65 << 20, func() int64 { return standbyObs.Counter("replica_recv_bad_frames").Load() }, standbyObs, "standby"},
	}
	// closedPromptly reports whether the server hung up (EOF, or a reset
	// when it left bytes unread) rather than the read deadline passing.
	closedPromptly := func(conn net.Conn) error {
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, err := conn.Read(make([]byte, 1))
		if err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			return errors.New("connection still open")
		}
		return nil
	}
	for _, l := range listeners {
		t.Run(l.name, func(t *testing.T) {
			dial := func() net.Conn {
				conn, err := net.Dial("tcp", l.addr)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { conn.Close() })
				return conn
			}

			// A JSON line is shorter than a frame header: the refusal must
			// come from its first bytes, not after waiting for sixteen.
			before := l.badFrames()
			conn := dial()
			if _, err := conn.Write([]byte("{\"op\":\"ping\"}\n")); err != nil {
				t.Fatal(err)
			}
			if err := closedPromptly(conn); err != nil {
				t.Fatalf("after a JSON line: %v", err)
			}
			if got := l.badFrames() - before; got != 1 {
				t.Fatalf("a JSON line counted %d bad frames, want 1", got)
			}

			// A header announcing one byte over the ceiling, and no payload:
			// refused on the length field alone, before any buffer is sized
			// or any payload byte awaited.
			before = l.badFrames()
			conn = dial()
			var hdr [wire.FrameHeaderSize]byte
			wire.PutFrameHeader(hdr[:], wire.FrameRequest, 1, l.ceiling+1)
			if _, err := conn.Write(hdr[:]); err != nil {
				t.Fatal(err)
			}
			if err := closedPromptly(conn); err != nil {
				t.Fatalf("after an oversized length field: %v", err)
			}
			if got := l.badFrames() - before; got != 1 {
				t.Fatalf("an oversized length field counted %d bad frames, want 1", got)
			}

			// A version-1 header (the framing that carried JSON bodies): the
			// peer is refused at the header — one bad frame, connection closed —
			// not answered frame by frame.
			before = l.badFrames()
			conn = dial()
			wire.PutFrameHeader(hdr[:], wire.FrameRequest, 1, 0)
			hdr[2] = 1
			if _, err := conn.Write(hdr[:]); err != nil {
				t.Fatal(err)
			}
			if err := closedPromptly(conn); err != nil {
				t.Fatalf("after a version-1 header: %v", err)
			}
			if got := l.badFrames() - before; got != 1 {
				t.Fatalf("a version-1 header counted %d bad frames, want 1", got)
			}

			// Garbage inside an intact frame: an error reply under the same
			// tag, and the connection keeps serving.
			before = l.badFrames()
			conn = dial()
			fw, fr := wire.NewFrameWriter(conn, l.ceiling), wire.NewFrameReader(conn, l.ceiling)
			_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
			ping, _ := wire.AppendRequest(nil, &wire.Request{Op: wire.OpPing})
			garbage := append(append([]byte(nil), ping...), 0xff, 0xff, 0xff) // a field tag no field carries
			if err := fw.WriteFrame(wire.FrameRequest, 7, garbage); err != nil {
				t.Fatal(err)
			}
			kind, tag, payload, err := fr.ReadFrame()
			if err != nil || kind != wire.FrameResponse || tag != 7 {
				t.Fatalf("reply to a garbage payload = kind %d tag %d, %v", kind, tag, err)
			}
			var resp wire.Response
			if ok := new(wire.Decoder).DecodeResponse(payload, &resp); !ok || !strings.Contains(resp.Err, "bad frame") {
				t.Fatalf("reply to a garbage payload = %+v (decoded %v)", resp, ok)
			}
			if got := l.badFrames() - before; got != 1 {
				t.Fatalf("a garbage payload counted %d bad frames, want 1", got)
			}
			if err := fw.WriteFrame(wire.FrameRequest, 8, ping); err != nil {
				t.Fatal(err)
			}
			if _, tag, _, err := fr.ReadFrame(); err != nil || tag != 8 {
				t.Fatalf("ping after a garbage payload: tag %d, %v", tag, err)
			}

			// A traced request (register: every listener answers it, if only
			// with a refusal) over a zero-length slow-trace budget lands in
			// the ring and the flight recorder both.
			l.reg.SetNode(l.name)
			l.reg.Slow.SetThreshold(time.Nanosecond)
			c, err := wire.Dial(l.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.SetTimeout(5 * time.Second)
			from := time.Now().UnixNano()
			resp, _ = c.Call(wire.Request{Op: wire.OpRegister})
			if resp.Trace == 0 {
				t.Fatalf("register answered %+v, with no trace", resp)
			}
			edgeSpans := func(spans []obs.Span) (n int) {
				for _, s := range spans {
					if s.Name == l.edge && s.Trace == resp.Trace {
						n++
					}
				}
				return n
			}
			ring, err := c.Trace(resp.Trace, 0)
			if err != nil || edgeSpans(ring) != 1 {
				t.Fatalf("trace %d: %d %q spans (%v), want the ring's one: %+v", resp.Trace, edgeSpans(ring), l.edge, err, ring)
			}
			pulled, node, now, err := c.TracePull(resp.Trace)
			if err != nil || edgeSpans(pulled) != 2 {
				t.Fatalf("trace-pull %d: %d %q spans (%v), want the ring's and the flight recorder's: %+v", resp.Trace, edgeSpans(pulled), l.edge, err, pulled)
			}
			if to := time.Now().UnixNano(); node != l.name || now < from || now > to {
				t.Fatalf("trace-pull answered node %q at %d, want %q within [%d, %d]", node, now, l.name, from, to)
			}
		})
	}
}
