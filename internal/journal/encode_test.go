package journal

import (
	"reflect"
	"testing"
	"time"

	"anufs/internal/sharedisk"
)

func benchEntry() Entry {
	im := sharedisk.Image{Version: 7, Records: map[string]sharedisk.Record{}}
	mod := time.Unix(0, 1754560000000000000)
	for _, p := range []string{"/a", "/b/c", "/b/d", "/e"} {
		im.Records[p] = sharedisk.Record{Size: 4096, Mode: 0o644, ModTime: mod, Owner: "alice"}
	}
	return Entry{Kind: KindFlush, FileSet: "fs00", Image: im}
}

// TestAppendEntryFrameMatchesTwoPass pins the one-pass framed encoding
// against the original encode-then-frame composition: same frame length,
// a valid backfilled length and CRC, and the same entry decoded back. The
// two byte strings themselves are not compared — an image's record order
// is a map range, so two encodings of one multi-record image legitimately
// differ byte for byte.
func TestAppendEntryFrameMatchesTwoPass(t *testing.T) {
	entries := []Entry{
		{Kind: KindCreateFileSet, FileSet: "fs00"},
		{Kind: KindDrop, FileSet: "fs01"},
		benchEntry(),
	}
	for i, e := range entries {
		want := appendFrame(nil, encodeEntry(e))
		got := appendEntryFrame([]byte("prefix"), e)
		if string(got[:6]) != "prefix" {
			t.Fatalf("entry %d: prefix clobbered", i)
		}
		for name, frame := range map[string][]byte{"one-pass": got[6:], "two-pass": want} {
			payload, n, ok := nextFrame(frame)
			if !ok || n != len(frame) || n != len(want) {
				t.Fatalf("entry %d: %s frame of %d bytes parses back as ok=%v n=%d (two-pass is %d bytes)",
					i, name, len(frame), ok, n, len(want))
			}
			back, err := decodeEntry(payload)
			if err != nil {
				t.Fatalf("entry %d: %s payload does not decode: %v", i, name, err)
			}
			if !reflect.DeepEqual(back, e) {
				t.Errorf("entry %d: %s frame decodes to %+v, want %+v", i, name, back, e)
			}
		}
	}
}

// TestAppendEntryFrameAllocFree is the journal half of the hot-path
// allocation contract: encoding into a warmed buffer allocates nothing.
func TestAppendEntryFrameAllocFree(t *testing.T) {
	e := benchEntry()
	var buf []byte
	if n := testing.AllocsPerRun(100, func() {
		buf = appendEntryFrame(buf[:0], e)
	}); n != 0 {
		t.Errorf("appendEntryFrame: %v allocs/op, want 0", n)
	}
}

// BenchmarkEncodeEntryFrame rides the same CI allocation guard as the
// wire codec benchmarks (cmd/allocguard asserts 0 allocs/op).
func BenchmarkEncodeEntryFrame(b *testing.B) {
	e := benchEntry()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = appendEntryFrame(buf[:0], e)
	}
}
