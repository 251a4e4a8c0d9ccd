package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"time"

	"anufs/internal/binenc"
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
	dst = binenc.AppendString(dst, e.FileSet)
	switch e.Kind {
	case KindFlush:
		dst = appendImage(dst, e.Image, keys)
	case KindDelta:
		dst = appendImage(dst, e.Image, keys)
		removed := append((*keys)[:0], e.Removed...)
		slices.Sort(removed)
		dst = binary.AppendUvarint(dst, uint64(len(removed)))
		for _, path := range removed {
			dst = binenc.AppendString(dst, path)
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
// TestAppendEntryFrameAllocFree holds it to zero allocations.
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
	c := &binenc.Cursor{B: payload}
	e := Entry{Kind: EntryKind(c.U8())}
	e.FileSet = c.Str()
	switch e.Kind {
	case KindCreateFileSet, KindDrop:
	case KindFlush:
		e.Image = decodeImage(c)
	case KindDelta:
		e.Image = decodeImage(c)
		e.Removed = decodeStrings(c)
	default:
		return Entry{}, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, e.Kind)
	}
	if c.Bad {
		return Entry{}, ErrCorrupt
	}
	if c.Len() != 0 {
		return Entry{}, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, c.Len())
	}
	return e, nil
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
// iteration; keys is the reusable scratch the paths are sorted in. The
// snapshot writer streams the same bytes piece by piece (appendImageHead,
// then appendRecord per path).
func appendImage(dst []byte, im sharedisk.Image, keys *[]string) []byte {
	dst = appendImageHead(dst, im)
	paths := sortedPaths(im, keys)
	for _, path := range paths {
		dst = appendRecord(dst, path, im.Records[path])
	}
	*keys = release(paths)
	return dst
}

// appendImageHead serializes what precedes an image's records.
func appendImageHead(dst []byte, im sharedisk.Image) []byte {
	dst = binary.AppendUvarint(dst, im.Version)
	return binary.AppendUvarint(dst, uint64(len(im.Records)))
}

// sortedPaths returns the image's paths in sorted order, in keys' storage;
// the caller hands it back through release.
func sortedPaths(im sharedisk.Image, keys *[]string) []string {
	paths := (*keys)[:0]
	for path := range im.Records {
		paths = append(paths, path)
	}
	slices.Sort(paths)
	return paths
}

// appendRecord serializes one record of an image.
func appendRecord(dst []byte, path string, rec sharedisk.Record) []byte {
	dst = binenc.AppendString(dst, path)
	dst = binary.AppendVarint(dst, rec.Size)
	dst = binary.AppendUvarint(dst, uint64(rec.Mode))
	if rec.ModTime.IsZero() {
		dst = append(dst, 0)
	} else {
		dst = append(dst, 1)
		dst = binary.AppendVarint(dst, rec.ModTime.UnixNano())
	}
	return binenc.AppendString(dst, rec.Owner)
}

// decodeStrings decodes a counted string list.
func decodeStrings(c *binenc.Cursor) []string {
	n := c.Count()
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n && !c.Bad; i++ {
		out = append(out, c.Str())
	}
	return out
}

func decodeImage(c *binenc.Cursor) sharedisk.Image {
	im := sharedisk.Image{Version: c.Uvarint()}
	n := c.Count()
	if c.Bad {
		return sharedisk.Image{}
	}
	im.Records = make(map[string]sharedisk.Record, n)
	for i := 0; i < n && !c.Bad; i++ {
		path := c.Str()
		var rec sharedisk.Record
		rec.Size = c.Varint()
		rec.Mode = uint32(c.Uvarint())
		if c.U8() != 0 {
			rec.ModTime = timeFromUnixNano(c.Varint())
		}
		rec.Owner = c.Str()
		im.Records[path] = rec
	}
	return im
}
