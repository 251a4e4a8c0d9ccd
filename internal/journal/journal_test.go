package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"anufs/internal/obs"
	"anufs/internal/sharedisk"
)

// img builds a small image for tests.
func img(version uint64, paths ...string) sharedisk.Image {
	im := sharedisk.Image{Version: version, Records: map[string]sharedisk.Record{}}
	for i, p := range paths {
		im.Records[p] = sharedisk.Record{
			Size:    int64(100 * (i + 1)),
			Mode:    0o644,
			ModTime: time.Unix(1700000000+int64(i), 123),
			Owner:   "tester",
		}
	}
	return im
}

// requireImagesEqual compares a recovered store against expected images.
func requireImagesEqual(t *testing.T, st *sharedisk.Store, want map[string]sharedisk.Image) {
	t.Helper()
	got := st.Images()
	if len(got) != len(want) {
		t.Fatalf("recovered %d file sets, want %d (%v vs %v)", len(got), len(want), keys(got), keys(want))
	}
	for fs, wim := range want {
		gim, ok := got[fs]
		if !ok {
			t.Fatalf("file set %q missing after recovery", fs)
		}
		if gim.Version != wim.Version {
			t.Fatalf("file set %q recovered at version %d, want %d", fs, gim.Version, wim.Version)
		}
		if !reflect.DeepEqual(gim.Records, wim.Records) {
			t.Fatalf("file set %q records differ:\n got %+v\nwant %+v", fs, gim.Records, wim.Records)
		}
	}
}

func keys(m map[string]sharedisk.Image) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestEntryRoundTrip(t *testing.T) {
	entries := []Entry{
		{Kind: KindCreateFileSet, FileSet: "vol00"},
		{Kind: KindFlush, FileSet: "vol01", Image: img(7, "/a", "/b/c")},
		{Kind: KindFlush, FileSet: "empty", Image: sharedisk.Image{Version: 2, Records: map[string]sharedisk.Record{}}},
		{Kind: KindFlush, FileSet: "zerotime", Image: sharedisk.Image{Version: 3, Records: map[string]sharedisk.Record{
			"/z": {Size: -1, Owner: "neg"}, // zero ModTime, negative size survive
		}}},
	}
	for _, e := range entries {
		payload := encodeEntry(e)
		got, err := decodeEntry(payload)
		if err != nil {
			t.Fatalf("decode(%+v): %v", e, err)
		}
		if got.Kind != e.Kind || got.FileSet != e.FileSet {
			t.Fatalf("round trip mismatch: %+v vs %+v", got, e)
		}
		if e.Kind == KindFlush && !reflect.DeepEqual(got.Image, e.Image) {
			t.Fatalf("image round trip mismatch:\n got %+v\nwant %+v", got.Image, e.Image)
		}
	}
}

func TestDecodeEntryNeverPanics(t *testing.T) {
	inputs := [][]byte{
		nil, {}, {0}, {99}, {byte(KindFlush)},
		{byte(KindFlush), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		append([]byte{byte(KindCreateFileSet), 200}, make([]byte, 10)...),
		encodeEntry(Entry{Kind: KindFlush, FileSet: "x", Image: img(1, "/a")})[:5],
	}
	for _, in := range inputs {
		if _, err := decodeEntry(in); err == nil {
			// Some truncations may still parse; that is fine as long as
			// nothing panics. Only assert on clearly-broken kinds.
			if len(in) == 0 || (in[0] != byte(KindCreateFileSet) && in[0] != byte(KindFlush)) {
				t.Fatalf("decode(%x) succeeded unexpectedly", in)
			}
		}
	}
}

// TestOpenAppendRecover is the basic durability loop: journal some work,
// reopen, and get the same store back.
func TestOpenAppendRecover(t *testing.T) {
	dir := t.TempDir()
	j, st, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Entries != 0 || len(st.FileSets()) != 0 {
		t.Fatalf("fresh dir recovered non-empty: %+v", info)
	}
	if err := j.LogCreateFileSet("vol00"); err != nil {
		t.Fatal(err)
	}
	if err := j.LogCreateFileSet("vol01"); err != nil {
		t.Fatal(err)
	}
	if err := j.LogFlush("vol00", img(2, "/a")); err != nil {
		t.Fatal(err)
	}
	if err := j.LogFlush("vol00", img(3, "/a", "/b")); err != nil {
		t.Fatal(err)
	}
	if err := j.LogFlush("vol01", img(2, "/x")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil { // double close is fine
		t.Fatal(err)
	}
	if err := j.LogCreateFileSet("late"); err == nil {
		t.Fatal("append after close succeeded")
	}

	st2, info2, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Truncated {
		t.Fatalf("clean log reported truncated: %+v", info2)
	}
	if info2.Entries != 5 || info2.LastSeq != 5 {
		t.Fatalf("recovered %d entries lastSeq %d, want 5/5", info2.Entries, info2.LastSeq)
	}
	requireImagesEqual(t, st2, map[string]sharedisk.Image{
		"vol00": img(3, "/a", "/b"),
		"vol01": img(2, "/x"),
	})

	// Reopen for appending: sequences continue, nothing is lost.
	j3, st3, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireImagesEqual(t, st3, st2.Images())
	if err := j3.LogFlush("vol01", img(3, "/x", "/y")); err != nil {
		t.Fatal(err)
	}
	if err := j3.Close(); err != nil {
		t.Fatal(err)
	}
	st4, info4, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info4.LastSeq != 6 {
		t.Fatalf("lastSeq = %d after reopen+append, want 6", info4.LastSeq)
	}
	requireImagesEqual(t, st4, map[string]sharedisk.Image{
		"vol00": img(3, "/a", "/b"),
		"vol01": img(3, "/x", "/y"),
	})
}

// TestSegmentRotation forces tiny segments and checks multi-segment replay.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]sharedisk.Image{}
	if err := j.LogCreateFileSet("vol"); err != nil {
		t.Fatal(err)
	}
	want["vol"] = sharedisk.Image{Version: 1, Records: map[string]sharedisk.Record{}}
	for v := uint64(2); v <= 40; v++ {
		im := img(v, "/a", "/b")
		if err := j.LogFlush("vol", im); err != nil {
			t.Fatal(err)
		}
		want["vol"] = im
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}
	st, _, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	requireImagesEqual(t, st, want)
}

// TestSnapshotCompaction: a snapshot must compact old segments and replay
// must stack later entries on top of it.
func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	j, st, _, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	d := sharedisk.NewDurable(st, j, 0)
	if err := d.CreateFileSet("vol"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		im, err := d.Load("vol")
		if err != nil {
			t.Fatal(err)
		}
		im.Records[fmt.Sprintf("/f%02d", i)] = sharedisk.Record{Size: int64(i)}
		if _, err := d.Flush("vol", im); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) != 1 {
		t.Fatalf("snapshot left %d segments, want 1 active", len(segs))
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) != 1 {
		t.Fatalf("got %d snapshots, want 1", len(snaps))
	}
	// More work after the snapshot lands in the tail.
	im, err := d.Load("vol")
	if err != nil {
		t.Fatal(err)
	}
	im.Records["/after"] = sharedisk.Record{Size: 999}
	if _, err := d.Flush("vol", im); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rec, info, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotSeq == 0 {
		t.Fatalf("recovery ignored the snapshot: %+v", info)
	}
	requireImagesEqual(t, rec, d.Store.Images())
	if got := rec.Images()["vol"].Records["/after"].Size; got != 999 {
		t.Fatalf("post-snapshot entry lost: size = %d", got)
	}
}

// TestAutomaticSnapshot: Durable cuts a snapshot every snapshotEvery
// journaled entries without being asked.
func TestAutomaticSnapshot(t *testing.T) {
	dir := t.TempDir()
	reg := obs.New()
	j, st, _, err := Open(dir, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	d := sharedisk.NewDurable(st, j, 8)
	if err := d.CreateFileSet("vol"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		im, err := d.Load("vol")
		if err != nil {
			t.Fatal(err)
		}
		im.Records["/f"] = sharedisk.Record{Size: int64(i)}
		if _, err := d.Flush("vol", im); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter(CtrSnapshots).Load(); got < 2 {
		t.Fatalf("expected >=2 automatic snapshots after 17 entries at every=8, got %d", got)
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

// TestConcurrentAppendAndSnapshot races flushes against snapshots and then
// verifies recovery equals the final in-memory state (run with -race).
func TestConcurrentAppendAndSnapshot(t *testing.T) {
	dir := t.TempDir()
	j, st, _, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	d := sharedisk.NewDurable(st, j, 0)
	const writers = 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		fs := fmt.Sprintf("vol%d", w)
		if err := d.CreateFileSet(fs); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(fs string) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				im, err := d.Load(fs)
				if err != nil {
					t.Error(err)
					return
				}
				im.Records["/n"] = sharedisk.Record{Size: int64(i)}
				if _, err := d.Flush(fs, im); err != nil {
					t.Error(err)
					return
				}
			}
		}(fs)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := d.Snapshot(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rec, _, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	requireImagesEqual(t, rec, d.Store.Images())
}

// TestRecoverMissingDir: recovering a nonexistent directory is an empty
// store, not an error (first boot).
func TestRecoverMissingDir(t *testing.T) {
	st, info, err := Recover(filepath.Join(t.TempDir(), "nope"))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.FileSets()) != 0 || info.Entries != 0 {
		t.Fatalf("missing dir recovered non-empty: %+v", info)
	}
}

// TestCorruptSnapshotFallsBack: a damaged newest snapshot must not take the
// store down — recovery falls back to an older snapshot plus the log.
func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	j, st, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := sharedisk.NewDurable(st, j, 0)
	if err := d.CreateFileSet("vol"); err != nil {
		t.Fatal(err)
	}
	im, _ := d.Load("vol")
	im.Records["/a"] = sharedisk.Record{Size: 1}
	if _, err := d.Flush("vol", im); err != nil {
		t.Fatal(err)
	}
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) != 1 {
		t.Fatalf("want 1 snapshot, got %d", len(snaps))
	}
	// Flip a byte inside the snapshot payload.
	data, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(snaps[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, info, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotSeq != 0 {
		t.Fatalf("corrupt snapshot was adopted: %+v", info)
	}
	// The snapshot covered entries that were compacted away, so only the
	// post-snapshot tail replays — which here is empty. The store must
	// still recover without error (possibly empty), never crash.
	_ = rec
}
