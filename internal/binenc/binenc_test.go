package binenc

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// reads is every Cursor method, each reporting whether it returned its zero
// value.
var reads = map[string]func(c *Cursor) (zero bool){
	"Len":     func(c *Cursor) bool { return c.Len() == 0 },
	"U8":      func(c *Cursor) bool { return c.U8() == 0 },
	"Uvarint": func(c *Cursor) bool { return c.Uvarint() == 0 },
	"Varint":  func(c *Cursor) bool { return c.Varint() == 0 },
	"Fixed":   func(c *Cursor) bool { return c.Fixed(1) == nil },
	"Bytes":   func(c *Cursor) bool { return c.Bytes() == nil },
	"Str":     func(c *Cursor) bool { return c.Str() == "" },
	"Count":   func(c *Cursor) bool { return c.Count() == 0 },
}

// TestBadLatches: the first short read sets Bad, and from then on every
// method returns its zero value and consumes nothing — although the bytes
// behind the cursor would decode fine.
func TestBadLatches(t *testing.T) {
	tail := []byte{1, 1, 1, 1} // decodable by every method
	for name, short := range map[string]struct {
		b    []byte
		read func(c *Cursor)
	}{
		"U8 at the end":              {nil, func(c *Cursor) { c.U8() }},
		"Uvarint cut mid-value":      {[]byte{0x80}, func(c *Cursor) { c.Uvarint() }},
		"Uvarint of eleven bytes":    {bytes.Repeat([]byte{0x80}, 11), func(c *Cursor) { c.Uvarint() }},
		"Varint cut mid-value":       {[]byte{0xff}, func(c *Cursor) { c.Varint() }},
		"Fixed past the end":         {[]byte{1, 2}, func(c *Cursor) { c.Fixed(3) }},
		"Fixed of a negative length": {[]byte{1, 2}, func(c *Cursor) { c.Fixed(-1) }},
		"Bytes longer than the rest": {[]byte{3, 'a', 'b'}, func(c *Cursor) { c.Bytes() }},
		"Str longer than the rest":   {[]byte{3, 'a', 'b'}, func(c *Cursor) { _ = c.Str() }},
		"Count above the rest":       {[]byte{3, 0, 0}, func(c *Cursor) { c.Count() }},
	} {
		c := Cursor{B: short.b}
		short.read(&c)
		if !c.Bad {
			t.Errorf("%s: Bad not set", name)
			continue
		}
		c.B, c.Off = tail, 0
		for method, read := range reads {
			if !read(&c) || !c.Bad || c.Off != 0 {
				t.Errorf("%s, then %s: not the zero value, or Bad=%v Off=%d", name, method, c.Bad, c.Off)
			}
		}
	}
}

// TestLengthPastEndAllocatesNothing: a length prefix or count that points
// past the end — by one byte or by 2^63 — is refused from the bytes that
// remain alone, before anything of the claimed size is made.
func TestLengthPastEndAllocatesNothing(t *testing.T) {
	for _, claimed := range []uint64{2, 1 << 20, math.MaxInt64, math.MaxUint64} {
		b := append(binary.AppendUvarint(nil, claimed), 'x')
		for method, read := range map[string]func(c *Cursor){
			"Bytes": func(c *Cursor) { c.Bytes() },
			"Str":   func(c *Cursor) { _ = c.Str() },
			"Count": func(c *Cursor) { c.Count() },
		} {
			var c Cursor
			if n := testing.AllocsPerRun(10, func() {
				c = Cursor{B: b}
				read(&c)
			}); n != 0 || !c.Bad {
				t.Errorf("%s of claimed length %d over 1 byte: %v allocs, Bad=%v", method, claimed, n, c.Bad)
			}
		}
	}
}

// TestRoundTripBoundaries: what the append side writes, the cursor reads
// back, at the edges of every encoding — and ends exactly at the end.
func TestRoundTripBoundaries(t *testing.T) {
	var b []byte
	uvarints := []uint64{0, 1, 127, 128, math.MaxUint32, math.MaxUint64}
	varints := []int64{0, 1, -1, 63, -64, 64, math.MaxInt64, math.MinInt64}
	strs := []string{"", "a", strings.Repeat("s", 127), strings.Repeat("l", 128)}
	for _, v := range uvarints {
		b = binary.AppendUvarint(b, v)
	}
	for _, v := range varints {
		b = binary.AppendVarint(b, v)
	}
	for _, s := range strs {
		b = AppendString(b, s)
		b = AppendString(b, []byte(s))
	}
	b = append(b, 0xab)
	b = binary.AppendUvarint(b, 3) // a count, then exactly that many bytes
	b = append(b, 7, 8, 9)

	c := Cursor{B: b}
	for _, want := range uvarints {
		if got := c.Uvarint(); got != want {
			t.Errorf("Uvarint = %d, want %d", got, want)
		}
	}
	for _, want := range varints {
		if got := c.Varint(); got != want {
			t.Errorf("Varint = %d, want %d", got, want)
		}
	}
	for _, want := range strs {
		if got := c.Str(); got != want {
			t.Errorf("Str = %q, want %q", got, want)
		}
		if got := c.Bytes(); string(got) != want {
			t.Errorf("Bytes = %q, want %q", got, want)
		}
	}
	if got := c.U8(); got != 0xab {
		t.Errorf("U8 = %#x, want 0xab", got)
	}
	if got := c.Count(); got != 3 || c.Len() != 3 {
		t.Errorf("Count = %d with %d bytes left, want 3 and 3", got, c.Len())
	}
	if got := c.Fixed(3); !bytes.Equal(got, []byte{7, 8, 9}) {
		t.Errorf("Fixed(3) = %v", got)
	}
	if c.Bad || c.Len() != 0 || c.Off != len(b) {
		t.Errorf("after the last value: Bad=%v Len=%d Off=%d of %d", c.Bad, c.Len(), c.Off, len(b))
	}
	if c.Fixed(0) == nil || c.Bad {
		t.Error("Fixed(0) at the end is an empty read, not a short one")
	}
}
