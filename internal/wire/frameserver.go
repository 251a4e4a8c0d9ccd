package wire

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"sync/atomic"
)

// connBufBytes sizes each connection's buffered reader and writer.
const connBufBytes = 64 << 10

// FrameServer drives one server-side connection: it reads tagged frames,
// hands each request to a handler goroutine, and answers under the tag the
// request carried, so completions are out of order.
//
// Handlers stay warm: one that has its response serves the connection's
// next request instead of exiting, and the read loop starts a new one only
// when every handler is inside Handle. So a connection that sends one
// request at a time is served by one goroutine, whose stack has already
// grown to what serving takes, and a connection never runs more handlers
// than it has had requests in flight at once. A handler counts itself free
// before its response leaves, so a peer that has the answer cannot get its
// next request to the read loop first; the read loop then waits for that
// handler rather than starting another. The wait lasts as long as that
// response's write: a peer that stops reading its responses stops the
// reading of its requests too (every client here reads them on a goroutine
// of its own).
//
// It is the one server loop: an Endpoint serves each of its connections
// through one, with the connection's accounting attached. Handle is called
// concurrently.
type FrameServer struct {
	// Handle serves one decoded request; called concurrently.
	Handle func(Request) Response
	// conn, when set, counts the connection's bad frames and requests in
	// flight (Endpoint); a bare FrameServer counts nothing.
	conn *connState
}

// Serve reads frames until the connection closes or loses framing — a bad
// header (which is what any non-frame first bytes are), an unknown kind, or
// a length above the ceiling counts one bad frame and drops the
// connection, since once byte boundaries are lost there is nothing to
// resynchronize on. maxPayload is the listener's ceiling, checked against
// each header's length field before any allocation: MaxFramePayload
// everywhere but the replication hop. Serve blocks until every in-flight
// request has completed and every handler has exited.
func (f *FrameServer) Serve(conn net.Conn, maxPayload int) {
	var handlers sync.WaitGroup
	defer handlers.Wait()
	// next hands a request to a free handler. Closing it ends the idle
	// handlers at once and each busy one after it has answered.
	next := make(chan taggedRequest)
	defer close(next)
	// free counts handlers that are done with Handle and have not been
	// handed another request; handlers add, only the read loop takes.
	var free atomic.Int64
	var writeMu sync.Mutex
	var encBuf []byte // reused response encode buffer, guarded by writeMu
	bw := bufio.NewWriterSize(conn, connBufBytes)
	fw := NewFrameWriter(bw, maxPayload)
	send := func(tag uint64, resp Response) {
		writeMu.Lock()
		defer writeMu.Unlock()
		payload, ok := AppendResponse(encBuf[:0], &resp)
		if !ok {
			payload, _ = AppendResponse(encBuf[:0], &Response{Err: "wire: unencodable response"})
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
				f.conn.badFrame()
			}
			return
		}
		if kind != FrameRequest {
			f.conn.badFrame()
			return
		}
		// Each request is decoded into a struct of its own and handed over
		// by value: the handler owns every byte of it, and nothing aliases
		// the frame reader's buffer or the next request.
		r := taggedRequest{tag: tag}
		if !dec.DecodeRequest(payload, &r.req) {
			// Framing is intact (the length field delimited the payload);
			// answer the tag and keep the connection.
			f.conn.badFrame()
			send(tag, Response{Err: "bad frame: malformed request body"})
			continue
		}
		f.conn.admit()
		if free.Load() > 0 {
			free.Add(-1)
			next <- r
			continue
		}
		handlers.Add(1)
		go func(r taggedRequest) {
			defer handlers.Done()
			for ok := true; ok; r, ok = <-next {
				resp := f.Handle(r.req)
				free.Add(1)
				send(r.tag, resp)
				f.conn.done()
			}
		}(r)
	}
}

// taggedRequest is one decoded request and the tag its answer goes under.
type taggedRequest struct {
	tag uint64
	req Request
}
