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

	"anufs/internal/obs"
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

var errInjected = errors.New("injected fsync failure")

// failNextSync makes the journal's next fsync, and only that one, fail.
func failNextSync(j *Journal) {
	j.mu.Lock()
	real := j.syncFile
	j.syncFile = func(*os.File) error {
		j.syncFile = real // the committer calls the seam under mu
		return errInjected
	}
	j.mu.Unlock()
}

// flushDelta is Durable.FlushDelta followed at once by its commit's wait.
func flushDelta(d *sharedisk.Durable, fileSet string, dl sharedisk.Delta) (uint64, error) {
	v, c, err := d.FlushDelta(0, fileSet, dl)
	if err != nil {
		return v, err
	}
	return v, c.Wait()
}

// TestNoFlushAckedAfterFailedAppend: a flush whose append fails is not
// acknowledged, and neither is anything after it — the log stops rather
// than take an entry above the hole, and there is no whole-image re-base to
// paper over it. A crash then recovers exactly the acknowledged prefix.
func TestNoFlushAckedAfterFailedAppend(t *testing.T) {
	dir := t.TempDir()
	reg := obs.New()
	j, st, _, err := Open(dir, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	d := sharedisk.NewDurable(st, j, 0)
	if err := d.CreateFileSet("vol"); err != nil {
		t.Fatal(err)
	}
	put := func(base uint64, path string, size int64) (uint64, error) {
		return flushDelta(d, "vol", sharedisk.Delta{Base: base, Puts: map[string]sharedisk.Record{path: {Size: size}}})
	}
	v, err := put(1, "/acked", 1)
	if err != nil {
		t.Fatal(err)
	}
	acked := d.Store.Images()
	failNextSync(j)
	v2, err := put(v, "/unacked", 2)
	if !errors.Is(err, errInjected) || v2 != v+1 {
		t.Fatalf("failed append = version %d, %v; want the applied version %d with the injected error", v2, err, v+1)
	}
	// The fsync works again, but the page cache no longer vouches for the
	// batch that failed: nothing may land behind it.
	v3, err := put(v2, "/later", 3)
	if !errors.Is(err, ErrFailed) || !errors.Is(err, errInjected) || v3 != v2+1 {
		t.Fatalf("flush after a failed append = version %d, %v; want version %d, ErrFailed wrapping the cause", v3, err, v2+1)
	}
	if err := d.CreateFileSet("other"); !errors.Is(err, errInjected) {
		t.Fatalf("create after a failed append = %v", err)
	}
	if err := d.Install("adopted", img(3, "/x")); !errors.Is(err, errInjected) {
		t.Fatalf("install after a failed append = %v", err)
	}
	if got := reg.Counter(CtrWriteFailed).Load(); got != 1 {
		t.Fatalf("%s = %d, want 1", CtrWriteFailed, got)
	}
	// Crash: no Close, no snapshot — recovery sees only what the log holds.
	rec, info, err := Recover(dir)
	if err != nil || info.Truncated || info.LastSeq != 2 {
		t.Fatalf("Recover = %+v, %v; want the 2 acknowledged entries and no torn tail", info, err)
	}
	requireImagesEqual(t, rec, acked)
	var kinds []EntryKind
	for _, s := range shipAll(t, j.NewTailer(1)) {
		e, err := DecodeEntry(s.Payload)
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, e.Kind)
	}
	if want := []EntryKind{KindCreateFileSet, KindDelta}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("journaled kinds %v, want %v", kinds, want)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// randomHistory drives a Durable over a real journal with a seeded mix of
// what the product does to a shared disk — create, flush deltas (puts,
// overwrites, removes), adopt an image, drop — and returns the journal's
// entries as logged plus the store as of the last acknowledged step. With
// failAt >= 0 the fsync under that step's append fails: that step and
// every one after it must be refused.
func randomHistory(t *testing.T, seed int64, steps, failAt int) (dir string, entries []Entry, acked map[string]sharedisk.Image) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dir = t.TempDir()
	j, st, _, err := Open(dir, Options{SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	d := sharedisk.NewDurable(st, j, 0)
	path := func() string { return fmt.Sprintf("/p%02d", rng.Intn(24)) }
	rec := func() sharedisk.Record { return sharedisk.Record{Size: rng.Int63n(1 << 20), Owner: "o"} }
	for i := 0; i < steps; i++ {
		if i == failAt {
			acked = d.Store.Images()
			failNextSync(j)
		}
		fs := fmt.Sprintf("vol%d", rng.Intn(4))
		v, verr := d.Version(fs)
		var err error
		switch op := rng.Intn(20); {
		case verr != nil && op < 10:
			err = d.CreateFileSet(fs)
		case verr != nil || op == 0:
			// Adopt an image from "another daemon", over or instead of ours.
			// Strictly newer than a copy we hold: replay, like Install's
			// callers, treats an equal version as the same image.
			im := sharedisk.Image{Version: v + 1 + uint64(rng.Intn(3)), Records: map[string]sharedisk.Record{}}
			for n := rng.Intn(5); n > 0; n-- {
				im.Records[path()] = rec()
			}
			err = d.Install(fs, im)
		case op == 1:
			err = d.DropFileSet(fs)
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
			_, err = flushDelta(d, fs, dl)
		}
		if failed := failAt >= 0 && i >= failAt; failed != (err != nil) || (failed && !errors.Is(err, errInjected)) {
			t.Fatalf("seed %d step %d (failure injected at %d): err = %v", seed, i, failAt, err)
		}
	}
	for _, s := range shipAll(t, j.NewTailer(1)) {
		e, err := DecodeEntry(s.Payload)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
	}
	if failAt < 0 {
		acked = d.Store.Images()
	}
	if err := j.Close(); failAt < 0 && err != nil {
		t.Fatal(err)
	}
	return dir, entries, acked
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
// and replaying twice is replaying once. Every other seed also has an
// fsync fail partway: from then on nothing is acknowledged, and "the live
// store" above is the store as of the last acknowledged step.
func TestReplayProperties(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		const steps = 150
		failAt := -1
		if seed%2 == 0 {
			failAt = steps/2 + int(seed)*5
		}
		dir, entries, live := randomHistory(t, seed, steps, failAt)
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
		if twice, _, err := Recover(dir); err != nil || !reflect.DeepEqual(twice.Images(), live) {
			t.Fatalf("seed %d: recovering twice differs from once (%v)", seed, err)
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
			if _, err := writeSnapshot(dir, "snap-", uint64(k), expectedPrefix(entries, k+ahead)); err != nil {
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
