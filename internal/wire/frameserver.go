package wire

import (
	"bufio"
	"errors"
	"net"
	"sync"
)

// connBufBytes sizes each connection's buffered reader and writer.
const connBufBytes = 64 << 10

// FrameServer drives one server-side connection: it reads tagged frames,
// runs each request on its own goroutine, and answers under the tag the
// request carried, so completions are out of order.
//
// It is the one server loop — wire.Server, the sdk gateway and the
// standby's replica.Receiver all serve through it. Handle is the only
// required hook and is called concurrently.
type FrameServer struct {
	// Handle serves one decoded request; called concurrently.
	Handle func(Request) Response
	// OnBadFrame, if set, is called once per undecodable frame (accounting).
	OnBadFrame func()
	// OnInflight, if set, observes admissions (+1) and completions (-1) —
	// the hook behind in-flight gauges and pipeline-depth histograms.
	OnInflight func(delta int64)
}

// Serve reads frames until the connection closes or loses framing — a bad
// header (which is what any non-frame first bytes are), an unknown kind, or
// a length above the ceiling counts one bad frame and drops the
// connection, since once byte boundaries are lost there is nothing to
// resynchronize on. maxPayload is the listener's ceiling, checked against
// each header's length field before any allocation: MaxFramePayload
// everywhere but the replication hop. Serve blocks until every in-flight
// request has completed.
func (f *FrameServer) Serve(conn net.Conn, maxPayload int) {
	var reqWG sync.WaitGroup
	defer reqWG.Wait()
	var writeMu sync.Mutex
	var encBuf []byte // reused response encode buffer, guarded by writeMu
	bw := bufio.NewWriterSize(conn, connBufBytes)
	fw := NewFrameWriter(bw, maxPayload)
	send := func(tag uint64, resp Response) {
		writeMu.Lock()
		defer writeMu.Unlock()
		payload, ok := AppendResponse(encBuf[:0], &resp)
		if !ok {
			payload, _ = AppendResponse(encBuf[:0], &Response{ID: resp.ID, Err: "wire: unencodable response"})
		}
		if cap(payload) <= maxKeptEncodeBuf {
			encBuf = payload
		}
		// Write errors surface as the reader's EOF.
		if fw.WriteFrame(FrameResponse, tag, payload) == nil {
			_ = bw.Flush()
		}
	}
	fr := NewFrameReader(bufio.NewReaderSize(conn, connBufBytes), maxPayload)
	var dec Decoder
	for {
		kind, tag, payload, err := fr.ReadFrame()
		if err != nil {
			if errors.Is(err, ErrBadFrameHeader) || errors.Is(err, ErrFrameTooLarge) || errors.Is(err, ErrBadFrameKind) {
				f.badFrame()
			}
			return
		}
		if kind != FrameRequest {
			f.badFrame()
			return
		}
		// Each request is decoded into a struct of its own: the handler
		// goroutine owns every byte of it, and nothing aliases the frame
		// reader's buffer or the next request.
		var req Request
		if !dec.DecodeRequest(payload, &req) {
			// Framing is intact (the length field delimited the payload);
			// answer the tag and keep the connection.
			f.badFrame()
			send(tag, Response{Err: "bad frame: malformed request body"})
			continue
		}
		reqWG.Add(1)
		f.inflight(1)
		go func() {
			defer reqWG.Done()
			send(tag, f.Handle(req))
			f.inflight(-1)
		}()
	}
}

func (f *FrameServer) badFrame() {
	if f.OnBadFrame != nil {
		f.OnBadFrame()
	}
}

func (f *FrameServer) inflight(d int64) {
	if f.OnInflight != nil {
		f.OnInflight(d)
	}
}
