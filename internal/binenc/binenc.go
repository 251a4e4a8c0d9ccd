// Package binenc holds the primitives of the tree's two binary formats —
// journal entries on disk and request/response bodies on the wire: a
// length-prefixed string and a bounds-checked cursor. What a record, an
// image or a frame body looks like stays with its owner (internal/journal,
// internal/wire); only the varint plumbing is shared.
package binenc

import "encoding/binary"

// AppendString appends s — a string or a byte slice — as a uvarint length
// followed by its bytes.
func AppendString[S ~string | ~[]byte](dst []byte, s S) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// Cursor is a bounds-checked little decoder over B: the first failure
// latches Bad (a caller that finds a decoded value out of range sets it
// too) and every subsequent read returns zero values, so a caller decodes
// a whole structure and checks once. No method allocates except Str.
type Cursor struct {
	B   []byte
	Off int
	Bad bool
}

// Len is the number of bytes not yet consumed (0 once Bad).
func (c *Cursor) Len() int {
	if c.Bad {
		return 0
	}
	return len(c.B) - c.Off
}

// U8 reads one byte.
func (c *Cursor) U8() uint8 {
	if c.Bad || c.Off >= len(c.B) {
		c.Bad = true
		return 0
	}
	v := c.B[c.Off]
	c.Off++
	return v
}

// Uvarint reads an unsigned varint.
func (c *Cursor) Uvarint() uint64 {
	if c.Bad {
		return 0
	}
	v, n := binary.Uvarint(c.B[c.Off:])
	if n <= 0 {
		c.Bad = true
		return 0
	}
	c.Off += n
	return v
}

// Varint reads a signed (zig-zag) varint.
func (c *Cursor) Varint() int64 {
	if c.Bad {
		return 0
	}
	v, n := binary.Varint(c.B[c.Off:])
	if n <= 0 {
		c.Bad = true
		return 0
	}
	c.Off += n
	return v
}

// Fixed reads n raw bytes; like Bytes, the result aliases B.
func (c *Cursor) Fixed(n int) []byte {
	if c.Bad || n < 0 || n > len(c.B)-c.Off {
		c.Bad = true
		return nil
	}
	b := c.B[c.Off : c.Off+n]
	c.Off += n
	return b
}

// Bytes reads a length-prefixed byte string. The length is checked against
// what remains before anything is sliced; the result aliases B.
func (c *Cursor) Bytes() []byte {
	ln := c.Uvarint()
	if c.Bad || ln > uint64(len(c.B)-c.Off) {
		c.Bad = true
		return nil
	}
	return c.Fixed(int(ln))
}

// Str reads a length-prefixed string into fresh memory.
func (c *Cursor) Str() string { return string(c.Bytes()) }

// Count reads an element count and refuses one that cannot fit: every
// element of every list in both formats takes at least one byte, so a count
// above the bytes that remain is malformed — checked before the caller
// allocates anything for it.
func (c *Cursor) Count() int {
	n := c.Uvarint()
	if c.Bad || n > uint64(len(c.B)-c.Off) {
		c.Bad = true
		return 0
	}
	return int(n)
}
