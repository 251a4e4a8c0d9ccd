package journal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"anufs/internal/obs"
	"anufs/internal/sharedisk"
)

// lend is a Snapshot cut over a fixed image map.
func lend(images map[string]sharedisk.Image) func(func(map[string]sharedisk.Image) error) error {
	return func(encode func(map[string]sharedisk.Image) error) error { return encode(images) }
}

// bigImage is a file set of n records with distinct, non-zero fields.
func bigImage(version uint64, n int) sharedisk.Image {
	im := sharedisk.Image{Version: version, Records: make(map[string]sharedisk.Record, n)}
	for i := 0; i < n; i++ {
		im.Records[fmt.Sprintf("/d%02d/f%05d", i%16, i)] = sharedisk.Record{
			Size: int64(i) * 37, Mode: 0o644, ModTime: time.Unix(1_700_000_000, int64(i)), Owner: "u1",
		}
	}
	return im
}

// snapshotCases are the cuts the writer is pinned on: one of them encodes
// to more than the writer's buffer, so it reaches the file mid-image.
func snapshotCases() map[string]map[string]sharedisk.Image {
	return map[string]map[string]sharedisk.Image{
		"empty store":    {},
		"empty file set": {"vol00": {Version: 1, Records: map[string]sharedisk.Record{}}},
		"mod times": {
			"vol01": {Version: 4, Records: map[string]sharedisk.Record{
				"/zero": {Size: 1, Mode: 0o600, Owner: "a"},
				"/set":  {Size: -2, Mode: 0o755, ModTime: time.Unix(1_700_000_000, 5), Owner: "b"},
				"/pre":  {ModTime: time.Unix(-5, 0)},
			}},
			"vol00": {Version: 2, Records: map[string]sharedisk.Record{}},
		},
		"larger than the buffer": {
			"vol02": bigImage(9, 6000),
			"vol00": img(3, "/a", "/b"),
		},
	}
}

// wantSnapshot is the snapshot file of images at seq, built the one-buffer
// way: header, then one frame around the whole encoded cut.
func wantSnapshot(seq uint64, images map[string]sharedisk.Image) []byte {
	var hdr [headerLen]byte
	putHeader(&hdr, snapMagic, seq)
	return appendFrame(hdr[:], EncodeImages(images))
}

// TestSnapshotFileBytes: every snapshot file — a journal's own cut or a
// shipped one written by writeSnapshot — is byte for byte the header and
// one frame around EncodeImages of the cut, however the cut's bytes fall
// across the writer's buffer.
func TestSnapshotFileBytes(t *testing.T) {
	if n := len(EncodeImages(snapshotCases()["larger than the buffer"])); n <= 2*snapshotBufLen {
		t.Fatalf("the large case encodes to %d bytes, not past two buffers of %d", n, snapshotBufLen)
	}
	for name, images := range snapshotCases() {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			j, _, _, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := j.LogCreateFileSet("other"); err != nil {
				t.Fatal(err)
			}
			if err := j.Snapshot(lend(images)); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(snapshotName(dir, "snap-", 1))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, wantSnapshot(1, images)) {
				t.Fatalf("journal snapshot differs from header ‖ appendFrame(EncodeImages): %d vs %d bytes", len(got), len(wantSnapshot(1, images)))
			}

			path, err := writeSnapshot(dir, "reset-", 42, images)
			if err != nil {
				t.Fatal(err)
			}
			if got, err = os.ReadFile(path); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, wantSnapshot(42, images)) {
				t.Fatal("writeSnapshot differs from header ‖ appendFrame(EncodeImages)")
			}
			loaded, seq, err := loadSnapshot(path)
			if err != nil || seq != 42 {
				t.Fatalf("loadSnapshot = seq %d, %v", seq, err)
			}
			if len(loaded) != len(images) {
				t.Fatalf("loaded %d file sets, wrote %d", len(loaded), len(images))
			}
			if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
				t.Fatalf("temp files left behind: %v", tmps)
			}
		})
	}
}

// TestSnapshotAllocatesLessThanItsCut: a snapshot streams the live store to
// disk through a fixed buffer, so what it allocates is a small fraction of
// the cut — no clone of the store, no buffer the size of the cut. Counted
// in bytes allocated, not timed.
func TestSnapshotAllocatesLessThanItsCut(t *testing.T) {
	j, st, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := sharedisk.NewDurable(st, j, 0)
	defer d.Close()
	for i := 0; i < 8; i++ {
		if err := d.Install(fmt.Sprintf("vol%02d", i), bigImage(2, 8192)); err != nil {
			t.Fatal(err)
		}
	}
	cut := len(EncodeImages(st.Images()))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	if alloc >= uint64(cut/4) {
		t.Fatalf("snapshot of a %d-byte cut allocated %d bytes, want under a quarter of the cut", cut, alloc)
	}
	t.Logf("snapshot of a %d-byte cut allocated %d bytes", cut, alloc)
}

// TestSnapshotOverFrameLimitRefused: a cut larger than a snapshot frame may
// hold would be a snapshot recovery cannot load, so the writer refuses it
// before the rename — no snapshot, no compaction, no temp file — and the
// log it would have replaced still recovers the whole state. A refused
// automatic snapshot does not fail the write that made it due; the journal
// counts it.
func TestSnapshotOverFrameLimitRefused(t *testing.T) {
	defer func(limit int64) { maxSnapshotPayload = limit }(maxSnapshotPayload)
	maxSnapshotPayload = 6 // one empty file set's cut is 7 bytes

	dir := t.TempDir()
	reg := obs.New()
	j, st, _, err := Open(dir, Options{SegmentBytes: 256, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	d := sharedisk.NewDurable(st, j, 1)
	defer d.Close()
	if err := d.CreateFileSet("vol"); err != nil {
		t.Fatalf("create, with its automatic snapshot refused: %v", err)
	}
	v := uint64(1)
	for i := 0; i < 12; i++ {
		nv, err := flushDelta(d, "vol", sharedisk.Delta{Base: v, Puts: map[string]sharedisk.Record{fmt.Sprintf("/f%02d", i): {Size: int64(i)}}})
		if err != nil {
			t.Fatalf("flush %d, with its automatic snapshot refused: %v", i, err)
		}
		v = nv
	}
	if got := reg.Counter(snapshotFailures).Load(); got != 13 {
		t.Fatalf("%s = %d after 13 entries, each due a snapshot", snapshotFailures, got)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) < 3 {
		t.Fatalf("13 entries in 256-byte segments made %d segments", len(segs))
	}
	if err := d.Snapshot(); err == nil {
		t.Fatal("an explicit snapshot over the frame limit succeeded")
	}
	if got := reg.Counter(snapshotFailures).Load(); got != 14 {
		t.Fatalf("%s = %d after one more refusal, want 14", snapshotFailures, got)
	}
	if got := reg.Counter(CtrSnapshots).Load(); got != 0 {
		t.Fatalf("%s = %d, want 0", CtrSnapshots, got)
	}
	left, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	for _, s := range segs {
		if !slices.Contains(left, s) {
			t.Fatalf("refused snapshot removed %s", filepath.Base(s))
		}
	}
	if extra, _ := filepath.Glob(filepath.Join(dir, "*.snap*")); len(extra) != 0 {
		t.Fatalf("refused snapshot left %v", extra)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rec, _, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	requireImagesEqual(t, rec, d.Store.Images())
}

// TestSnapshotCountersFromOpen: the snapshot counters are exported at 0
// before the first snapshot.
func TestSnapshotCountersFromOpen(t *testing.T) {
	reg := obs.New()
	j, _, _, err := Open(t.TempDir(), Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	ctrs := reg.Counters()
	for _, name := range []string{CtrSnapshots, CtrCompacted, snapshotFailures} {
		if v, ok := ctrs[name]; !ok || v != 0 {
			t.Errorf("fresh journal's %s = %d (present %v), want 0", name, v, ok)
		}
	}
}

// FuzzDecodeSnapshot: no snapshot file bytes panic the loader — fed as a
// whole file, and as a cut framed under a valid header so the fuzzer
// reaches the image decoder past the CRC. Whatever loads is rewritten by
// the snapshot writer to bytes that load to the same cut and equal the
// one-buffer encoding of it. (The decoder accepts some non-canonical
// encodings — overlong varints, unsorted file sets, repeated paths — so
// the rewrite equals the input only when the input was canonical, as every
// writer-made file is.)
func FuzzDecodeSnapshot(f *testing.F) {
	seedDir := f.TempDir()
	for _, images := range snapshotCases() {
		p, err := writeSnapshot(seedDir, "snap-", 7, images)
		if err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(EncodeImages(images))
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		rewritesTheSame(t, dir, data)
		var hdr [headerLen]byte
		putHeader(&hdr, snapMagic, 3)
		rewritesTheSame(t, dir, appendFrame(hdr[:], data))
	})
}

// rewritesTheSame loads data as a snapshot file and, if it loads, checks
// the writer's rewrite of it as FuzzDecodeSnapshot describes.
func rewritesTheSame(t *testing.T, dir string, data []byte) {
	images, seq, err := decodeSnapshot(data)
	if err != nil {
		return
	}
	rewrite := func(images map[string]sharedisk.Image) []byte {
		p, err := writeSnapshot(dir, "snap-", seq, images)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	first := rewrite(images)
	again, seq2, err := decodeSnapshot(first)
	if err != nil || seq2 != seq {
		t.Fatalf("rewritten snapshot does not load: seq %d, %v", seq2, err)
	}
	if !reflect.DeepEqual(again, images) {
		t.Fatal("rewritten snapshot loads to a different cut")
	}
	if !bytes.Equal(first, wantSnapshot(seq, images)) {
		t.Fatal("the writer's rewrite differs from header ‖ appendFrame(EncodeImages)")
	}
}
