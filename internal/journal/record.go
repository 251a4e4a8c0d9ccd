package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"time"

	"anufs/internal/sharedisk"
)

// timeFromUnixNano rebuilds a time.Time from its encoded nanoseconds.
func timeFromUnixNano(ns int64) time.Time { return time.Unix(0, ns) }

// On-disk framing. Every journal entry is one frame:
//
//	+----------------+----------------+====================+
//	| payload length | CRC32(payload) |      payload       |
//	|   uint32 LE    |   uint32 LE    |  length bytes      |
//	+----------------+----------------+====================+
//
// payload = [1 byte kind][kind-specific body]. A torn write (crash mid
// append) shows up as a frame whose length runs past EOF or whose CRC does
// not match; recovery truncates the log at the first such frame.
const (
	frameHeaderLen = 8
	// maxFrameLen bounds a single entry. Anything larger is treated as
	// corruption rather than an allocation request.
	maxFrameLen = 64 << 20
)

// ErrCorrupt marks a frame or payload that does not decode; recovery treats
// it as the end of the usable log.
var ErrCorrupt = errors.New("journal: corrupt record")

// EntryKind discriminates journal entries.
type EntryKind uint8

const (
	// KindCreateFileSet records the birth of an empty file set.
	KindCreateFileSet EntryKind = 1
	// KindFlush records a whole image at its version: an adopted file set.
	// Snapshots and creates aside, it is the only entry replay can start a
	// file set's history from.
	KindFlush EntryKind = 2
	// KindDrop records the removal of a file set from this journal's shared
	// disk — written when a fleet handoff donates the file set to another
	// daemon, so replay does not resurrect the fenced copy.
	KindDrop EntryKind = 3
	// KindDelta records one flush as the mutation it made — the records put
	// and the paths removed — with the version the flush produced. It is the
	// unit of durability; replay applies it only onto the version before.
	KindDelta EntryKind = 4
)

// Entry is one decoded journal record.
type Entry struct {
	Kind    EntryKind
	FileSet string
	// Image is the flushed image for KindFlush entries. For KindDelta it
	// holds the post-flush version and only the records the flush put.
	Image sharedisk.Image
	// Removed lists the paths a KindDelta entry deletes.
	Removed []string
}

// appendFrame encodes the payload as a length+CRC frame onto dst.
func appendFrame(dst, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// nextFrame extracts the first frame's payload from data. ok is false when
// data starts with a torn or corrupt frame (including a clean EOF: zero
// remaining bytes is simply n=0, ok=false).
func nextFrame(data []byte) (payload []byte, n int, ok bool) {
	if len(data) < frameHeaderLen {
		return nil, 0, false
	}
	ln := binary.LittleEndian.Uint32(data[0:4])
	sum := binary.LittleEndian.Uint32(data[4:8])
	if ln > maxFrameLen || int(ln) > len(data)-frameHeaderLen {
		return nil, 0, false
	}
	payload = data[frameHeaderLen : frameHeaderLen+int(ln)]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, false
	}
	return payload, frameHeaderLen + int(ln), true
}

// appendEntry serializes an entry payload (no frame header) onto dst. A
// delta is the image encoding of its version and puts, then the removed
// paths, sorted like the records. keys is sort scratch (see appendImage).
func appendEntry(dst []byte, e Entry, keys *[]string) []byte {
	dst = append(dst, byte(e.Kind))
	dst = appendString(dst, e.FileSet)
	switch e.Kind {
	case KindFlush:
		dst = appendImage(dst, e.Image, keys)
	case KindDelta:
		dst = appendImage(dst, e.Image, keys)
		removed := append((*keys)[:0], e.Removed...)
		slices.Sort(removed)
		dst = binary.AppendUvarint(dst, uint64(len(removed)))
		for _, path := range removed {
			dst = appendString(dst, path)
		}
		*keys = release(removed)
	}
	return dst
}

// encodeEntry serializes an entry payload into a fresh buffer.
func encodeEntry(e Entry) []byte { return appendEntry(nil, e, new([]string)) }

// appendEntryFrame appends e as one complete framed record onto dst: the
// 8-byte header slot is reserved up front, the payload is encoded in
// place, and length+CRC are backfilled — one pass, no intermediate
// payload buffer, so a pooled dst and pooled sort scratch make the append
// path allocation-free.
//
//anufs:hotpath
func appendEntryFrame(dst []byte, e Entry, keys *[]string) []byte {
	hdrOff := len(dst)
	var hdr [frameHeaderLen]byte
	dst = append(dst, hdr[:]...)
	dst = appendEntry(dst, e, keys)
	payload := dst[hdrOff+frameHeaderLen:]
	binary.LittleEndian.PutUint32(dst[hdrOff:hdrOff+4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[hdrOff+4:hdrOff+8], crc32.ChecksumIEEE(payload))
	return dst
}

// decodeEntry parses an entry payload. It never panics: any malformed input
// yields ErrCorrupt.
func decodeEntry(payload []byte) (Entry, error) {
	c := &cursor{b: payload}
	e := Entry{Kind: EntryKind(c.u8())}
	e.FileSet = c.str()
	switch e.Kind {
	case KindCreateFileSet, KindDrop:
	case KindFlush:
		e.Image = c.image()
	case KindDelta:
		e.Image = c.image()
		e.Removed = c.strs()
	default:
		return Entry{}, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, e.Kind)
	}
	if c.err != nil {
		return Entry{}, c.err
	}
	if c.off != len(c.b) {
		return Entry{}, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(c.b)-c.off)
	}
	return e, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// release empties sort scratch for its next use, so that it does not pin
// the strings it held.
func release(scratch []string) []string {
	clear(scratch)
	return scratch[:0]
}

// appendImage serializes an image: version, record count, then each record
// as path, size, mode, mod time (zero flagged explicitly — the zero
// time.Time has no representable UnixNano), owner. Records go in sorted
// path order, so the bytes are a function of the image alone, not of map
// iteration; keys is the reusable scratch the paths are sorted in.
func appendImage(dst []byte, im sharedisk.Image, keys *[]string) []byte {
	dst = binary.AppendUvarint(dst, im.Version)
	dst = binary.AppendUvarint(dst, uint64(len(im.Records)))
	paths := (*keys)[:0]
	//anufs:allow simdeterminism the paths are sorted before any byte is written
	for path := range im.Records {
		paths = append(paths, path)
	}
	slices.Sort(paths)
	for _, path := range paths {
		rec := im.Records[path]
		dst = appendString(dst, path)
		dst = binary.AppendVarint(dst, rec.Size)
		dst = binary.AppendUvarint(dst, uint64(rec.Mode))
		if rec.ModTime.IsZero() {
			dst = append(dst, 0)
		} else {
			dst = append(dst, 1)
			dst = binary.AppendVarint(dst, rec.ModTime.UnixNano())
		}
		dst = appendString(dst, rec.Owner)
	}
	*keys = release(paths)
	return dst
}

// cursor is a bounds-checked little decoder: the first failure latches in
// err and every subsequent read returns zero values.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) fail() {
	if c.err == nil {
		c.err = ErrCorrupt
	}
}

func (c *cursor) u8() uint8 {
	if c.err != nil || c.off >= len(c.b) {
		c.fail()
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *cursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.fail()
		return 0
	}
	c.off += n
	return v
}

func (c *cursor) varint() int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		c.fail()
		return 0
	}
	c.off += n
	return v
}

func (c *cursor) str() string {
	ln := c.uvarint()
	if c.err != nil || ln > uint64(len(c.b)-c.off) {
		c.fail()
		return ""
	}
	s := string(c.b[c.off : c.off+int(ln)])
	c.off += int(ln)
	return s
}

// strs decodes a counted string list.
func (c *cursor) strs() []string {
	n := c.uvarint()
	// Each string needs at least its length byte; reject counts that cannot
	// fit before allocating.
	if c.err != nil || n > uint64(len(c.b)-c.off) {
		c.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n && c.err == nil; i++ {
		out = append(out, c.str())
	}
	return out
}

func (c *cursor) image() sharedisk.Image {
	im := sharedisk.Image{Version: c.uvarint()}
	n := c.uvarint()
	// Each record needs at least a few bytes; reject counts that cannot fit
	// before allocating.
	if c.err != nil || n > uint64(len(c.b)-c.off) {
		c.fail()
		return sharedisk.Image{}
	}
	im.Records = make(map[string]sharedisk.Record, n)
	for i := uint64(0); i < n && c.err == nil; i++ {
		path := c.str()
		var rec sharedisk.Record
		rec.Size = c.varint()
		rec.Mode = uint32(c.uvarint())
		if c.u8() != 0 {
			rec.ModTime = timeFromUnixNano(c.varint())
		}
		rec.Owner = c.str()
		im.Records[path] = rec
	}
	return im
}
