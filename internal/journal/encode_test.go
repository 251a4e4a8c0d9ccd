package journal

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"anufs/internal/sharedisk"
)

var benchMod = time.Unix(0, 1754560000000000000)

func benchRecords(paths ...string) map[string]sharedisk.Record {
	recs := make(map[string]sharedisk.Record, len(paths))
	for _, p := range paths {
		recs[p] = sharedisk.Record{Size: 4096, Mode: 0o644, ModTime: benchMod, Owner: "alice"}
	}
	return recs
}

func benchEntry() Entry {
	return Entry{Kind: KindFlush, FileSet: "fs00",
		Image: sharedisk.Image{Version: 7, Records: benchRecords("/a", "/b/c", "/b/d", "/e")}}
}

// benchDelta is what a durable 1-record update journals.
func benchDelta() Entry {
	return Entry{Kind: KindDelta, FileSet: "fs00",
		Image: sharedisk.Image{Version: 8, Records: benchRecords("/b/c")}}
}

// benchWideDelta has enough puts and removes that both get sorted.
func benchWideDelta() Entry {
	return Entry{Kind: KindDelta, FileSet: "fs00",
		Image:   sharedisk.Image{Version: 9, Records: benchRecords("/q", "/a", "/m/n", "/b")},
		Removed: []string{"/z", "/c", "/y"}}
}

// TestAppendEntryFrameMatchesTwoPass pins the one-pass framed encoding
// against the original encode-then-frame composition, byte for byte:
// records and removed paths are encoded in sorted order, so one entry has
// one encoding.
func TestAppendEntryFrameMatchesTwoPass(t *testing.T) {
	entries := []Entry{
		{Kind: KindCreateFileSet, FileSet: "fs00"},
		{Kind: KindDrop, FileSet: "fs01"},
		benchEntry(),
		benchDelta(),
		benchWideDelta(),
	}
	var keys []string
	for i, e := range entries {
		want := appendFrame(nil, encodeEntry(e))
		got := appendEntryFrame([]byte("prefix"), e, &keys)
		if string(got[:6]) != "prefix" {
			t.Fatalf("entry %d: prefix clobbered", i)
		}
		if !bytes.Equal(got[6:], want) {
			t.Fatalf("entry %d: one-pass frame differs from encode-then-frame:\n got %x\nwant %x", i, got[6:], want)
		}
		payload, n, ok := nextFrame(want)
		if !ok || n != len(want) {
			t.Fatalf("entry %d: frame of %d bytes parses back as ok=%v n=%d", i, len(want), ok, n)
		}
		back, err := decodeEntry(payload)
		if err != nil {
			t.Fatalf("entry %d: payload does not decode: %v", i, err)
		}
		want2 := e
		if e.Kind == KindDelta {
			want2.Removed = sortedCopy(e.Removed)
		}
		if !reflect.DeepEqual(back, want2) {
			t.Errorf("entry %d: frame decodes to %+v, want %+v", i, back, want2)
		}
	}
	if removed := benchWideDelta().Removed; !reflect.DeepEqual(removed, []string{"/z", "/c", "/y"}) {
		t.Errorf("encoding reordered the caller's Removed slice: %v", removed)
	}
}

func sortedCopy(in []string) []string {
	out := slices.Clone(in)
	slices.Sort(out)
	return out
}

// TestEncodingIsAFunctionOfContent: the same records reach the encoder in
// maps built in different orders (and so with different iteration orders);
// images, deltas and whole-store cuts must encode to the same bytes.
func TestEncodingIsAFunctionOfContent(t *testing.T) {
	const n = 200
	build := func(step int) map[string]sharedisk.Record {
		recs := map[string]sharedisk.Record{}
		for i := 0; i < n; i++ {
			k := (i * step) % n // a permutation of 0..n-1: same paths, another insertion order
			p := fmt.Sprintf("/dir%02d/file%03d", k%7, k)
			recs[p] = sharedisk.Record{Size: int64(len(p)), Owner: "o"}
		}
		return recs
	}
	var image, delta, cut []byte
	for _, step := range []int{1, 3, 7, 11, 13, 17, 19, 23} { // all coprime with n: same key set
		recs := build(step)
		if len(recs) != n {
			t.Fatalf("step %d built %d records, want %d", step, len(recs), n)
		}
		im := sharedisk.Image{Version: 5, Records: recs}
		gotImage := encodeEntry(Entry{Kind: KindFlush, FileSet: "fs", Image: im})
		gotDelta := encodeEntry(Entry{Kind: KindDelta, FileSet: "fs", Image: im, Removed: []string{"/b", "/a"}})
		gotCut := encodeImages(map[string]sharedisk.Image{"fs1": im, "fs0": im, "fs2": {Version: 1, Records: build(step)}})
		if image == nil {
			image, delta, cut = gotImage, gotDelta, gotCut
			continue
		}
		if !bytes.Equal(gotImage, image) || !bytes.Equal(gotDelta, delta) || !bytes.Equal(gotCut, cut) {
			t.Fatalf("step %d: encoding depends on map construction order", step)
		}
	}
}

// TestAppendEntryFrameAllocFree is the journal half of the hot-path
// allocation contract: encoding into a warmed buffer and warmed sort
// scratch allocates nothing — for an image and for the delta a durable
// write journals.
func TestAppendEntryFrameAllocFree(t *testing.T) {
	for name, e := range map[string]Entry{"image": benchEntry(), "delta": benchDelta(), "wide delta": benchWideDelta()} {
		var buf []byte
		var keys []string
		if n := testing.AllocsPerRun(100, func() {
			buf = appendEntryFrame(buf[:0], e, &keys)
		}); n != 0 {
			t.Errorf("appendEntryFrame(%s): %v allocs/op, want 0", name, n)
		}
	}
}

func benchEncode(b *testing.B, e Entry) {
	var buf []byte
	var keys []string
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = appendEntryFrame(buf[:0], e, &keys)
	}
}

// BenchmarkEncodeEntryFrame and BenchmarkEncodeDeltaFrame time what
// TestAppendEntryFrameAllocFree holds at 0 allocs/op.
func BenchmarkEncodeEntryFrame(b *testing.B) { benchEncode(b, benchEntry()) }
func BenchmarkEncodeDeltaFrame(b *testing.B) { benchEncode(b, benchDelta()) }
