package wire

import (
	"errors"
	"io"
)

// This file is the wire's framing: every connection carries tagged binary
// frames from its first byte, so one connection holds many in-flight
// requests and completes them out of order. There is no other framing and
// no negotiation — a peer whose first bytes are not a frame header is
// counted as one bad frame and dropped.
//
// Frame layout (all integers big-endian):
//
//	offset  size  field
//	0       2     magic "aF"
//	2       1     framing version (frameVersion)
//	3       1     kind (FrameRequest | FrameResponse)
//	4       4     payload length (bytes; at most the connection's ceiling)
//	8       8     tag (correlates a response to its request)
//	16      n     payload (a Request or Response body, see codec.go)
//
// The framing buys correlation-by-tag and length-delimited reads; the
// payload is the binary body codec.go defines. Tags are chosen by the
// sender of a request and echoed verbatim by the responder — they are
// per-connection, not global.

// frameVersion is the header's version byte; a frame carrying any other
// value is refused. Version 1 framed JSON bodies: a peer still speaking it
// is turned away at its first header, not answered frame by frame.
const frameVersion = 2

// Frame kinds.
const (
	FrameRequest  byte = 1
	FrameResponse byte = 2
)

// FrameHeaderSize is the fixed header length preceding every payload.
const FrameHeaderSize = 16

// MaxFramePayload is the payload ceiling of every daemon and gateway
// connection — larger than any legitimate client request, small enough
// that a hostile length field cannot make the server allocate gigabytes.
// Only the replication hop, whose snapshot ships carry a whole store cut,
// runs under a higher ceiling (internal/replica passes its own).
const MaxFramePayload = 16 << 20

const (
	frameMagic0 = 'a'
	frameMagic1 = 'F'
)

// Frame decode errors. Sentinels, not fmt-built: the decode path is a
// hot path and the caller drops the connection on any of them anyway.
var (
	ErrBadFrameHeader = errors.New("wire: bad frame header")
	ErrFrameTooLarge  = errors.New("wire: frame payload exceeds the connection's ceiling")
	ErrBadFrameKind   = errors.New("wire: unknown frame kind")
)

// PutFrameHeader writes a frame header into dst, which must be at least
// FrameHeaderSize bytes. n is the payload length that follows.
//
// TestFramingAllocFree holds it to zero allocations.
func PutFrameHeader(dst []byte, kind byte, tag uint64, n int) {
	_ = dst[FrameHeaderSize-1]
	dst[0] = frameMagic0
	dst[1] = frameMagic1
	dst[2] = frameVersion
	dst[3] = kind
	dst[4] = byte(n >> 24)
	dst[5] = byte(n >> 16)
	dst[6] = byte(n >> 8)
	dst[7] = byte(n)
	dst[8] = byte(tag >> 56)
	dst[9] = byte(tag >> 48)
	dst[10] = byte(tag >> 40)
	dst[11] = byte(tag >> 32)
	dst[12] = byte(tag >> 24)
	dst[13] = byte(tag >> 16)
	dst[14] = byte(tag >> 8)
	dst[15] = byte(tag)
}

// ParseFrameHeader decodes a frame header: kind, tag, and payload length.
// It rejects bad magic or version, unknown kinds, and lengths above
// maxPayload —
// the caller must drop the connection on error, since framing is lost.
//
// TestFramingAllocFree holds it to zero allocations.
func ParseFrameHeader(hdr []byte, maxPayload int) (kind byte, tag uint64, n int, err error) {
	if len(hdr) < FrameHeaderSize {
		return 0, 0, 0, ErrBadFrameHeader
	}
	if hdr[0] != frameMagic0 || hdr[1] != frameMagic1 || hdr[2] != frameVersion {
		return 0, 0, 0, ErrBadFrameHeader
	}
	kind = hdr[3]
	if kind != FrameRequest && kind != FrameResponse {
		return 0, 0, 0, ErrBadFrameKind
	}
	n = int(uint32(hdr[4])<<24 | uint32(hdr[5])<<16 | uint32(hdr[6])<<8 | uint32(hdr[7]))
	if n > maxPayload {
		return 0, 0, 0, ErrFrameTooLarge
	}
	tag = uint64(hdr[8])<<56 | uint64(hdr[9])<<48 | uint64(hdr[10])<<40 | uint64(hdr[11])<<32 |
		uint64(hdr[12])<<24 | uint64(hdr[13])<<16 | uint64(hdr[14])<<8 | uint64(hdr[15])
	return kind, tag, n, nil
}

// FrameWriter writes tagged frames. Not safe for concurrent use; callers
// serialize writes (one writer mutex per connection).
type FrameWriter struct {
	w   io.Writer
	max int
	hdr [FrameHeaderSize]byte
}

// NewFrameWriter wraps w (typically a *bufio.Writer the caller flushes);
// maxPayload is the connection's payload ceiling.
func NewFrameWriter(w io.Writer, maxPayload int) *FrameWriter {
	return &FrameWriter{w: w, max: maxPayload}
}

// WriteFrame writes one frame. The header buffer is reused across calls,
// so a frame write allocates nothing beyond what w does.
//
// TestFramingAllocFree holds it to zero allocations.
func (fw *FrameWriter) WriteFrame(kind byte, tag uint64, payload []byte) error {
	if len(payload) > fw.max {
		return ErrFrameTooLarge
	}
	PutFrameHeader(fw.hdr[:], kind, tag, len(payload))
	if _, err := fw.w.Write(fw.hdr[:]); err != nil {
		return err
	}
	_, err := fw.w.Write(payload)
	return err
}

// FrameReader reads tagged frames, reusing one payload buffer across
// reads: the returned payload is only valid until the next ReadFrame.
type FrameReader struct {
	r   io.Reader
	max int
	hdr [FrameHeaderSize]byte
	buf []byte
}

// NewFrameReader wraps r (typically a *bufio.Reader); maxPayload is the
// connection's payload ceiling, checked against the header's length field
// before the payload buffer is sized.
func NewFrameReader(r io.Reader, maxPayload int) *FrameReader {
	return &FrameReader{r: r, max: maxPayload}
}

// ReadFrame reads one frame. On any error the stream's framing must be
// considered lost and the connection dropped. The payload slice aliases
// the reader's internal buffer — decode it before the next call.
//
// TestFramingAllocFree holds it to zero allocations.
func (fr *FrameReader) ReadFrame() (kind byte, tag uint64, payload []byte, err error) {
	// The magic is checked as soon as it arrives: a peer speaking anything
	// else (a short text line, say) is refused at once instead of being
	// waited on for the rest of a header it will never send.
	if _, err = io.ReadFull(fr.r, fr.hdr[:2]); err != nil {
		return 0, 0, nil, err
	}
	if fr.hdr[0] != frameMagic0 || fr.hdr[1] != frameMagic1 {
		return 0, 0, nil, ErrBadFrameHeader
	}
	if _, err = io.ReadFull(fr.r, fr.hdr[2:]); err != nil {
		return 0, 0, nil, err
	}
	kind, tag, n, err := ParseFrameHeader(fr.hdr[:], fr.max)
	if err != nil {
		return 0, 0, nil, err
	}
	if n > cap(fr.buf) {
		fr.grow(n)
	}
	payload = fr.buf[:n]
	if _, err = io.ReadFull(fr.r, payload); err != nil {
		return 0, 0, nil, err
	}
	return kind, tag, payload, nil
}

// grow replaces the payload buffer. Off the hot path by design: steady
// state reuses one buffer sized by the largest frame seen.
func (fr *FrameReader) grow(n int) {
	fr.buf = make([]byte, n)
}
