package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"anufs/internal/sharedisk"
)

// delta builds a KindDelta entry producing version: img's records for the
// put paths, plus removed paths.
func delta(fileSet string, version uint64, removed []string, put ...string) Entry {
	return Entry{Kind: KindDelta, FileSet: fileSet, Image: img(version, put...), Removed: removed}
}

// buildLog journals a fixed multi-record history that mixes every entry
// kind — creates, whole images, deltas (puts, removes, both), a drop and a
// re-adoption — and returns the segment file plus the entry list in append
// order.
func buildLog(t *testing.T) (dir string, seg string, entries []Entry) {
	t.Helper()
	dir = t.TempDir()
	j, _, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	entries = []Entry{
		{Kind: KindCreateFileSet, FileSet: "vol00"},
		{Kind: KindCreateFileSet, FileSet: "vol01"},
		delta("vol00", 2, nil, "/a"),
		{Kind: KindFlush, FileSet: "vol01", Image: img(2, "/x", "/y")},
		delta("vol00", 3, nil, "/a", "/b"),
		{Kind: KindCreateFileSet, FileSet: "vol02"},
		delta("vol01", 3, []string{"/y"}),
		delta("vol02", 2, nil, "/only"),
		{Kind: KindDrop, FileSet: "vol00"},
		delta("vol01", 4, []string{"/x"}, "/z"),
		{Kind: KindFlush, FileSet: "vol00", Image: img(2, "/adopted")},
		delta("vol00", 3, []string{"/never-there"}, "/adopted", "/more"),
	}
	appendEntries(t, j, entries)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want exactly 1 segment, got %v (%v)", segs, err)
	}
	return dir, segs[0], entries
}

// frameEnds parses the segment and returns, for each entry, the byte offset
// at which its frame ends (i.e. the smallest truncation length that keeps
// it), plus the total length.
func frameEnds(t *testing.T, seg string) []int {
	t.Helper()
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	ends := []int{}
	off := headerLen
	for off < len(data) {
		_, n, ok := nextFrame(data[off:])
		if !ok {
			t.Fatalf("segment has torn frame at %d in clean log", off)
		}
		off += n
		ends = append(ends, off)
	}
	return ends
}

// fold applies entries onto a deep copy of base, as recovery would. A delta
// applies to an image in place, so each entry is folded from its own
// decoded copy and the caller's entries stay reusable.
func fold(base map[string]sharedisk.Image, entries []Entry) (map[string]sharedisk.Image, error) {
	images := sharedisk.NewStoreFromImages(base, 0).Images()
	for i, e := range entries {
		e, err := decodeEntry(encodeEntry(e))
		if err == nil {
			err = applyEntry(images, e)
		}
		if err != nil {
			return nil, fmt.Errorf("entry %d (%+v): %w", i, e, err)
		}
	}
	return images, nil
}

// expectedPrefix folds the first k entries into the image map recovery
// should produce.
func expectedPrefix(entries []Entry, k int) map[string]sharedisk.Image {
	return expectedOver(nil, entries, k)
}

// expectedOver is expectedPrefix for a log that continues from a snapshot.
func expectedOver(base map[string]sharedisk.Image, entries []Entry, k int) map[string]sharedisk.Image {
	images, err := fold(base, entries[:k])
	if err != nil {
		panic(err)
	}
	return images
}

// withoutSegment clones a built log's directory minus its segment — empty,
// or the snapshot the segment continues from — and recovers what that holds.
// The every-byte suites damage the segment over a fresh copy of it.
func withoutSegment(t *testing.T, seg string) (baseDir string, base map[string]sharedisk.Image) {
	t.Helper()
	baseDir = copyDir(t, filepath.Dir(seg))
	if err := os.Remove(filepath.Join(baseDir, filepath.Base(seg))); err != nil {
		t.Fatal(err)
	}
	st, _, err := Recover(baseDir)
	if err != nil {
		t.Fatal(err)
	}
	return baseDir, st.Images()
}

// TestRecoverTruncatedAtEveryByte is the crash-injection suite the issue
// demands: for EVERY possible truncation length of a multi-record log —
// simulating a crash after any partial write — Recover must return exactly
// the store described by the longest record prefix that survived, with no
// torn record applied.
func TestRecoverTruncatedAtEveryByte(t *testing.T) {
	for name, build := range logBuilders {
		t.Run(name, func(t *testing.T) { recoverTruncatedAtEveryByte(t, build) })
	}
}

func recoverTruncatedAtEveryByte(t *testing.T, build func(*testing.T) (string, string, []Entry)) {
	_, seg, entries := build(t)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(t, seg)
	if len(ends) != len(entries) {
		t.Fatalf("segment has %d frames, want %d", len(ends), len(entries))
	}
	baseDir, base := withoutSegment(t, seg)

	// prefixFor(L) = number of whole entries within the first L bytes.
	prefixFor := func(L int) int {
		k := 0
		for k < len(ends) && ends[k] <= L {
			k++
		}
		return k
	}

	for L := 0; L <= len(data); L++ {
		dir := copyDir(t, baseDir)
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(seg)), data[:L], 0o644); err != nil {
			t.Fatal(err)
		}
		st, info, err := Recover(dir)
		if err != nil {
			t.Fatalf("truncate@%d: Recover: %v", L, err)
		}
		k := prefixFor(L)
		want := expectedOver(base, entries, k)
		got := st.Images()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("truncate@%d: recovered %d entries' worth, want prefix of %d:\n got %+v\nwant %+v",
				L, info.Entries, k, got, want)
		}
		if info.Entries != k {
			t.Fatalf("truncate@%d: replayed %d entries, want %d", L, info.Entries, k)
		}
		wantTorn := L != len(data) && (L < headerLen || L != ends[max(0, k-1)] && !atFrameBoundary(L, ends, headerLen))
		_ = wantTorn // Truncated flag behaviour is covered below; state equality is the invariant here.
	}
}

// atFrameBoundary reports whether L is exactly a frame end (or the bare
// header), i.e. a truncation that looks like a clean shorter log.
func atFrameBoundary(L int, ends []int, header int) bool {
	if L == header {
		return true
	}
	for _, e := range ends {
		if e == L {
			return true
		}
	}
	return false
}

// TestRecoverBitflipAtEveryByte flips each byte of the log in turn: a
// corruption anywhere must yield some clean prefix of the history — never a
// panic, an error, or a state that includes the damaged record.
func TestRecoverBitflipAtEveryByte(t *testing.T) {
	for name, build := range logBuilders {
		t.Run(name, func(t *testing.T) { recoverBitflipAtEveryByte(t, build) })
	}
}

func recoverBitflipAtEveryByte(t *testing.T, build func(*testing.T) (string, string, []Entry)) {
	_, seg, entries := build(t)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(t, seg)
	baseDir, base := withoutSegment(t, seg)
	for pos := 0; pos < len(data); pos++ {
		dir := copyDir(t, baseDir)
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x5a
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(seg)), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		st, info, err := Recover(dir)
		if err != nil {
			t.Fatalf("flip@%d: Recover: %v", pos, err)
		}
		// The damaged frame is the first whose bytes include pos; every
		// frame before it must have been applied, none after it.
		damaged := len(ends)
		for i, e := range ends {
			if pos < e {
				damaged = i
				break
			}
		}
		if pos < headerLen {
			damaged = 0
		}
		got := st.Images()
		// A flip confined to frame `damaged` leaves prefix `damaged`
		// intact. (A CRC collision could in principle accept the mutated
		// frame; CRC32 makes single-byte flips always detectable.)
		want := expectedOver(base, entries, damaged)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("flip@%d: got %d entries (info %+v), want prefix %d", pos, info.Entries, info, damaged)
		}
		if !info.Truncated {
			t.Fatalf("flip@%d: corruption not reported", pos)
		}
	}
}

// TestOpenTruncatesTornTailAndContinues: after a torn tail, Open must cut
// the tail so new appends cannot interleave with garbage, and the combined
// history (prefix + new appends) must recover cleanly.
func TestOpenTruncatesTornTailAndContinues(t *testing.T) {
	_, seg, entries := buildLog(t)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(t, seg)
	// Cut mid-way through the 6th frame: 5 entries survive.
	cut := ends[5] - 3
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, filepath.Base(seg)), data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	j, st, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Truncated || info.Entries != 5 {
		t.Fatalf("Open after torn tail: %+v", info)
	}
	requireImagesEqual(t, st, expectedPrefix(entries, 5))
	if err := j.LogFlush("vol01", img(9, "/fresh")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rec, info2, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Truncated {
		t.Fatalf("log still torn after Open cleaned it: %+v", info2)
	}
	want := expectedPrefix(entries, 5)
	want["vol01"] = img(9, "/fresh")
	requireImagesEqual(t, rec, want)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
