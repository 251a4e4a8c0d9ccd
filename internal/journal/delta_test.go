package journal

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"anufs/internal/sharedisk"
)

// TestDeltaGapStopsRecovery: a delta that does not follow the version
// replay holds — a version gap, or no file set to land on — is never
// applied. Recovery stops at that entry exactly as at a torn frame, and
// Apply names it ErrCorrupt.
func TestDeltaGapStopsRecovery(t *testing.T) {
	for name, bad := range map[string]Entry{
		"version gap":     delta("vol00", 4, nil, "/gap"),
		"no such fileset": delta("ghost", 2, nil, "/gap"),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			j, _, _, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			entries := []Entry{
				{Kind: KindCreateFileSet, FileSet: "vol00"},
				delta("vol00", 2, nil, "/a"),
				bad,
				delta("vol00", 3, nil, "/after"),
			}
			appendEntries(t, j, entries)
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			st, info, err := Recover(dir)
			if err != nil {
				t.Fatal(err)
			}
			ends := frameEnds(t, info.TruncatedSegment)
			if !info.Truncated || info.Entries != 2 || info.LastSeq != 2 || info.ValidBytes != int64(ends[1]) {
				t.Fatalf("recovery did not stop at the bad delta: %+v (frame ends %v)", info, ends)
			}
			want := expectedPrefix(entries, 2)
			if got := st.Images(); !reflect.DeepEqual(got, want) {
				t.Fatalf("recovered %+v, want the two entries before the bad delta %+v", got, want)
			}
			if err := Apply(want, bad); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Apply(bad delta) = %v, want ErrCorrupt", err)
			}
			if !reflect.DeepEqual(want, expectedPrefix(entries, 2)) {
				t.Fatal("a refused delta changed the images")
			}
		})
	}
}

// flakyWAL is a journal whose next delta append can be made to fail before
// anything is written.
type flakyWAL struct {
	*Journal
	failNext bool
}

func (w *flakyWAL) LogDelta(trace uint64, fileSet string, d sharedisk.Delta) error {
	if w.failNext {
		w.failNext = false
		return errors.New("flakyWAL: injected append failure")
	}
	return w.Journal.LogDelta(trace, fileSet, d)
}

// TestRebaseAfterFailedAppendRecovers: a delta whose append fails leaves a
// hole in the file set's log. The next flush must journal the whole image,
// and a crash after it must recover every acknowledged write — including
// the records of the delta that was never journaled, which the re-base
// carries.
func TestRebaseAfterFailedAppendRecovers(t *testing.T) {
	dir := t.TempDir()
	j, st, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wal := &flakyWAL{Journal: j}
	d := sharedisk.NewDurable(st, wal, 0)
	if err := d.CreateFileSet("vol"); err != nil {
		t.Fatal(err)
	}
	put := func(base uint64, path string, size int64) (uint64, error) {
		return d.FlushDelta(0, "vol", sharedisk.Delta{Base: base, Puts: map[string]sharedisk.Record{path: {Size: size}}})
	}
	v, err := put(1, "/acked-1", 1)
	if err != nil {
		t.Fatal(err)
	}
	wal.failNext = true
	v, err = put(v, "/unacked", 2)
	if err == nil {
		t.Fatal("failed append was acknowledged")
	}
	if v, err = put(v, "/acked-2", 3); err != nil {
		t.Fatalf("flush after a failed append: %v", err)
	}
	if _, err = put(v, "/acked-3", 4); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close, no snapshot — recovery sees only what was fsynced.
	rec, info, err := Recover(dir)
	if err != nil || info.Truncated {
		t.Fatalf("Recover = %+v, %v", info, err)
	}
	requireImagesEqual(t, rec, d.Store.Images())
	var kinds []EntryKind
	for _, s := range shipAll(t, j.NewTailer(1)) {
		e, err := DecodeEntry(s.Payload)
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, e.Kind)
	}
	if want := []EntryKind{KindCreateFileSet, KindDelta, KindFlush, KindDelta}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("journaled kinds %v, want %v (the re-base is an image)", kinds, want)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// randomHistory drives a Durable over a real journal with a seeded mix of
// what the product does to a shared disk — create, flush deltas (puts,
// overwrites, removes), adopt an image, drop — plus append failures, and
// returns the journal's entries as logged.
func randomHistory(t *testing.T, seed int64, steps int) (dir string, entries []Entry, live map[string]sharedisk.Image) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dir = t.TempDir()
	j, st, _, err := Open(dir, Options{SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	wal := &flakyWAL{Journal: j}
	d := sharedisk.NewDurable(st, wal, 0)
	path := func() string { return fmt.Sprintf("/p%02d", rng.Intn(24)) }
	rec := func() sharedisk.Record { return sharedisk.Record{Size: rng.Int63n(1 << 20), Owner: "o"} }
	for i := 0; i < steps; i++ {
		fs := fmt.Sprintf("vol%d", rng.Intn(4))
		v, verr := d.Version(fs)
		switch op := rng.Intn(20); {
		case verr != nil && op < 10:
			if err := d.CreateFileSet(fs); err != nil {
				t.Fatal(err)
			}
		case verr != nil || op == 0:
			// Adopt an image from "another daemon", over or instead of ours.
			// Strictly newer than a copy we hold: replay, like Install's
			// callers, treats an equal version as the same image.
			im := sharedisk.Image{Version: v + 1 + uint64(rng.Intn(3)), Records: map[string]sharedisk.Record{}}
			for n := rng.Intn(5); n > 0; n-- {
				im.Records[path()] = rec()
			}
			if err := d.Install(fs, im); err != nil {
				t.Fatal(err)
			}
		case op == 1:
			if err := d.DropFileSet(fs); err != nil {
				t.Fatal(err)
			}
		default:
			dl := sharedisk.Delta{Base: v, Puts: map[string]sharedisk.Record{}}
			for n := rng.Intn(4); n > 0; n-- {
				dl.Puts[path()] = rec()
			}
			for n := rng.Intn(3); n > 0; n-- {
				if p := path(); !slices.Contains(dl.Removes, p) {
					if _, put := dl.Puts[p]; !put {
						dl.Removes = append(dl.Removes, p)
					}
				}
			}
			wal.failNext = op == 2
			_, err := d.FlushDelta(0, fs, dl)
			// A file set already waiting for its re-base journals an image,
			// which the injection does not touch.
			failed := op == 2 && !wal.failNext
			wal.failNext = false
			if (err != nil) != failed {
				t.Fatalf("step %d: FlushDelta err = %v, append failed = %v", i, err, failed)
			}
		}
	}
	// A failed append's records are in the store but not the log until the
	// file set's next flush re-bases it; flush each once so the log is whole.
	for _, fs := range d.FileSets() {
		v, _ := d.Version(fs)
		if _, err := d.FlushDelta(0, fs, sharedisk.Delta{Base: v}); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range shipAll(t, j.NewTailer(1)) {
		e, err := DecodeEntry(s.Payload)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
	}
	live = d.Store.Images()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, entries, live
}

// replay is fold for histories that must apply cleanly.
func replay(t *testing.T, base map[string]sharedisk.Image, entries []Entry) map[string]sharedisk.Image {
	t.Helper()
	images, err := fold(base, entries)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return images
}

// TestReplayProperties checks, over seeded random histories, what the
// delta kind must not break: recovery of the directory, replay of the full
// log and the live store all agree; a snapshot at ANY sequence plus the
// tail after it gives the same state, also when the cut ran one mutation
// ahead of its sequence (the store applies before the journal appends);
// and replaying twice is replaying once.
func TestReplayProperties(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		dir, entries, live := randomHistory(t, seed, 150)
		kinds := map[EntryKind]int{}
		for _, e := range entries {
			kinds[e.Kind]++
		}
		if kinds[KindDelta] == 0 || kinds[KindFlush] == 0 || kinds[KindDrop] == 0 || kinds[KindCreateFileSet] == 0 {
			t.Fatalf("seed %d: history misses a kind: %v", seed, kinds)
		}
		rec, info, err := Recover(dir)
		if err != nil || info.Truncated || info.Entries != len(entries) {
			t.Fatalf("seed %d: Recover = %+v, %v (log has %d entries)", seed, info, err, len(entries))
		}
		if got := rec.Images(); !reflect.DeepEqual(got, live) {
			t.Fatalf("seed %d: recovered store differs from the live one:\n got %+v\nwant %+v", seed, got, live)
		}
		full := replay(t, nil, entries)
		if !reflect.DeepEqual(full, live) {
			t.Fatalf("seed %d: replay of the full log differs from the live store", seed)
		}
		if twice := replay(t, full, entries); !reflect.DeepEqual(twice, full) {
			t.Fatalf("seed %d: replaying the log twice differs from once", seed)
		}
		for k := 0; k <= len(entries); k++ {
			snap := replay(t, nil, entries[:k])
			if got := replay(t, snap, entries[k:]); !reflect.DeepEqual(got, full) {
				t.Fatalf("seed %d: snapshot at seq %d + tail differs from the full log", seed, k)
			}
			if k > 0 {
				// The cut at seq k-1 already holds entry k's mutation.
				if got := replay(t, snap, entries[k-1:]); !reflect.DeepEqual(got, full) {
					t.Fatalf("seed %d: snapshot one mutation ahead of seq %d + tail differs from the full log", seed, k-1)
				}
			}
		}
	}
}

// TestRecoverMixedLogFromSnapshotAtEverySeq is the on-disk form of the
// property above: for every sequence of a mixed log, a directory holding a
// snapshot file at that sequence plus the full log recovers to the same
// store, replaying only the tail — also when the snapshot's cut ran one
// mutation ahead of the sequence it is named for.
func TestRecoverMixedLogFromSnapshotAtEverySeq(t *testing.T) {
	_, seg, entries := buildLog(t)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	want := expectedPrefix(entries, len(entries))
	for k := 1; k <= len(entries); k++ {
		for ahead := 0; ahead <= 1 && k+ahead <= len(entries); ahead++ {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(seg)), data, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := writeSnapshot(dir, uint64(k), expectedPrefix(entries, k+ahead)); err != nil {
				t.Fatal(err)
			}
			st, info, err := Recover(dir)
			if err != nil || info.Truncated {
				t.Fatalf("snapshot@%d+%d: Recover = %+v, %v", k, ahead, info, err)
			}
			if info.SnapshotSeq != uint64(k) || info.Entries != len(entries)-k {
				t.Fatalf("snapshot@%d+%d: adopted seq %d and replayed %d entries, want %d",
					k, ahead, info.SnapshotSeq, info.Entries, len(entries)-k)
			}
			if got := st.Images(); !reflect.DeepEqual(got, want) {
				t.Fatalf("snapshot@%d+%d: recovered %+v, want %+v", k, ahead, got, want)
			}
		}
	}
}

// FuzzDecodeEntry: no payload — torn, bit-flipped or hostile — may panic
// the decoder, and whatever decodes re-encodes to a payload that decodes to
// the same entry.
func FuzzDecodeEntry(f *testing.F) {
	for _, e := range []Entry{
		{Kind: KindCreateFileSet, FileSet: "vol00"},
		{Kind: KindDrop, FileSet: "vol00"},
		{Kind: KindFlush, FileSet: "vol01", Image: img(7, "/a", "/b/c")},
		delta("vol00", 2, nil, "/a"),
		delta("vol00", 3, []string{"/b", "/a"}),
		delta("vol00", 4, []string{"/gone"}, "/x", "/y", "/z"),
		{Kind: KindDelta, FileSet: "empty", Image: sharedisk.Image{Version: 9}},
	} {
		f.Add(encodeEntry(e))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		e, err := decodeEntry(payload)
		if err != nil {
			return
		}
		back, err := decodeEntry(encodeEntry(e))
		if err != nil {
			t.Fatalf("re-encoded entry does not decode: %v", err)
		}
		if !reflect.DeepEqual(encodeEntry(back), encodeEntry(e)) {
			t.Fatalf("entry changed across encode/decode: %+v vs %+v", back, e)
		}
	})
}
