package journal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"anufs/internal/sharedisk"
)

// logDelta is LogDelta followed at once by its wait: a blocking append.
func logDelta(j *Journal, trace uint64, fileSet string, d sharedisk.Delta) error {
	w, err := j.LogDelta(trace, fileSet, d)
	if err != nil {
		return err
	}
	return w.Wait()
}

// appendEntries journals each entry through the public Log* API.
func appendEntries(t *testing.T, j *Journal, entries []Entry) {
	t.Helper()
	for _, e := range entries {
		var err error
		switch e.Kind {
		case KindCreateFileSet:
			err = j.LogCreateFileSet(e.FileSet)
		case KindFlush:
			err = j.LogFlush(e.FileSet, e.Image)
		case KindDelta:
			err = logDelta(j, 0, e.FileSet, sharedisk.Delta{Base: e.Image.Version - 1, Puts: e.Image.Records, Removes: e.Removed})
		case KindDrop:
			err = j.LogDrop(e.FileSet)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// shipAll drains a tailer completely.
func shipAll(t *testing.T, tl *Tailer) []Shipped {
	t.Helper()
	var out []Shipped
	for {
		ents, snap, err := tl.Next(4, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if snap {
			t.Fatal("unexpected snapshotNeeded")
		}
		if len(ents) == 0 {
			return out
		}
		out = append(out, ents...)
	}
}

func TestTailerStreamsLiveAppends(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	first := []Entry{
		{Kind: KindCreateFileSet, FileSet: "vol00"},
		{Kind: KindFlush, FileSet: "vol00", Image: img(2, "/a")},
		{Kind: KindFlush, FileSet: "vol00", Image: img(3, "/a", "/b")},
	}
	appendEntries(t, j, first)

	tl := j.NewTailer(1)
	defer tl.Close()
	got := shipAll(t, tl)
	if len(got) != len(first) {
		t.Fatalf("tailed %d entries, want %d", len(got), len(first))
	}
	for i, s := range got {
		if s.Seq != uint64(i+1) {
			t.Fatalf("entry %d has seq %d", i, s.Seq)
		}
		e, err := DecodeEntry(s.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(e, first[i]) {
			t.Fatalf("entry %d decoded %+v, want %+v", i, e, first[i])
		}
	}

	// The commit signal wakes a caught-up tailer: capture it before the
	// append, then require it to fire and the tailer to see the new entry.
	sig := j.CommitSignal()
	if d := j.DurableSeq(); d != 3 {
		t.Fatalf("DurableSeq = %d, want 3", d)
	}
	appendEntries(t, j, []Entry{{Kind: KindFlush, FileSet: "vol00", Image: img(4, "/c")}})
	select {
	case <-sig:
	case <-time.After(5 * time.Second):
		t.Fatal("commit signal never fired")
	}
	more := shipAll(t, tl)
	if len(more) != 1 || more[0].Seq != 4 {
		t.Fatalf("after signal tailed %+v, want one entry at seq 4", more)
	}
}

func TestTailerWalksRotatedSegments(t *testing.T) {
	dir := t.TempDir()
	// One entry per segment: rotation happens before every batch after the
	// first entry lands.
	j, _, _, err := Open(dir, Options{SegmentBytes: headerLen + 1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	entries := []Entry{
		{Kind: KindCreateFileSet, FileSet: "vol00"},
		{Kind: KindCreateFileSet, FileSet: "vol01"},
		{Kind: KindFlush, FileSet: "vol00", Image: img(2, "/a")},
		{Kind: KindFlush, FileSet: "vol01", Image: img(2, "/x")},
		{Kind: KindFlush, FileSet: "vol00", Image: img(3, "/a", "/b")},
	}
	appendEntries(t, j, entries)
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) < 2 {
		t.Fatalf("want multiple segments, got %v", segs)
	}
	// Start mid-stream to exercise the seek path too.
	tl := j.NewTailer(2)
	defer tl.Close()
	got := shipAll(t, tl)
	if len(got) != len(entries)-1 {
		t.Fatalf("tailed %d entries from seq 2, want %d", len(got), len(entries)-1)
	}
	for i, s := range got {
		if s.Seq != uint64(i+2) {
			t.Fatalf("entry %d has seq %d, want %d", i, s.Seq, i+2)
		}
	}
}

func TestAppendShippedMirrorsPrimary(t *testing.T) {
	pdir, sdir := t.TempDir(), t.TempDir()
	p, _, _, err := Open(pdir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	entries := []Entry{
		{Kind: KindCreateFileSet, FileSet: "vol00"},
		{Kind: KindFlush, FileSet: "vol00", Image: img(2, "/a")},
		{Kind: KindCreateFileSet, FileSet: "vol01"},
		{Kind: KindFlush, FileSet: "vol01", Image: img(2, "/x", "/y")},
	}
	appendEntries(t, p, entries)
	tl := p.NewTailer(1)
	shipped := shipAll(t, tl)
	tl.Close()

	s, _, _, err := Open(sdir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Deliver in two batches with an overlap: the duplicate prefix must be
	// skipped, and re-delivering an already-applied batch must be a no-op.
	if err := s.AppendShipped(shipped[:3]); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendShipped(shipped[1:]); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendShipped(shipped); err != nil {
		t.Fatal(err)
	}
	if got := s.DurableSeq(); got != uint64(len(entries)) {
		t.Fatalf("standby DurableSeq = %d, want %d", got, len(entries))
	}
	// A gap must be rejected, not silently applied.
	gap := Shipped{Seq: uint64(len(entries)) + 2, Payload: EncodeEntry(Entry{Kind: KindCreateFileSet, FileSet: "volXX"})}
	if err := s.AppendShipped([]Shipped{gap}); err == nil {
		t.Fatal("sequence gap accepted")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// The standby's journal recovers to exactly the primary's state.
	want := expectedPrefix(entries, len(entries))
	st, info, err := Recover(sdir)
	if err != nil {
		t.Fatal(err)
	}
	if info.LastSeq != uint64(len(entries)) {
		t.Fatalf("standby recovered LastSeq %d, want %d", info.LastSeq, len(entries))
	}
	requireImagesEqual(t, st, want)
}

func TestTailerSnapshotFallbackAndInstall(t *testing.T) {
	pdir, sdir := t.TempDir(), t.TempDir()
	p, _, _, err := Open(pdir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	images := map[string]sharedisk.Image{}
	apply := func(es []Entry) {
		for _, e := range es {
			if err := Apply(images, e); err != nil {
				t.Fatal(err)
			}
		}
	}
	head := []Entry{
		{Kind: KindCreateFileSet, FileSet: "vol00"},
		{Kind: KindFlush, FileSet: "vol00", Image: img(2, "/a")},
	}
	appendEntries(t, p, head)
	apply(head)
	// Compact: entries 1..2 now live only in the snapshot.
	if err := p.Snapshot(lend(images)); err != nil {
		t.Fatal(err)
	}
	tail := []Entry{
		{Kind: KindCreateFileSet, FileSet: "vol01"},
		{Kind: KindFlush, FileSet: "vol01", Image: img(2, "/x")},
	}
	appendEntries(t, p, tail)
	apply(tail)

	// A tailer starting from 1 cannot stream the compacted prefix.
	tl := p.NewTailer(1)
	ents, snap, err := tl.Next(16, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !snap || len(ents) != 0 {
		t.Fatalf("Next = (%d entries, snap=%v), want snapshotNeeded", len(ents), snap)
	}
	tl.Close()

	// Ship a full cut instead, then stream the rest from past it.
	cutSeq, cut := p.CaptureCut(func() map[string]sharedisk.Image { return images })
	if cutSeq != 4 {
		t.Fatalf("CaptureCut seq = %d, want 4", cutSeq)
	}
	decoded, err := DecodeImages(EncodeImages(cut))
	if err != nil {
		t.Fatal(err)
	}
	s, _, _, err := Open(sdir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InstallSnapshot(cutSeq, decoded); err != nil {
		t.Fatal(err)
	}
	if got := s.DurableSeq(); got != cutSeq {
		t.Fatalf("standby DurableSeq after install = %d, want %d", got, cutSeq)
	}
	// Re-installing an old cut is a no-op.
	if err := s.InstallSnapshot(cutSeq, decoded); err != nil {
		t.Fatal(err)
	}

	more := []Entry{{Kind: KindFlush, FileSet: "vol00", Image: img(3, "/a", "/b")}}
	appendEntries(t, p, more)
	apply(more)
	tl2 := p.NewTailer(cutSeq + 1)
	shipped := shipAll(t, tl2)
	tl2.Close()
	if err := s.AppendShipped(shipped); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st, _, err := Recover(sdir)
	if err != nil {
		t.Fatal(err)
	}
	requireImagesEqual(t, st, images)
}

func TestAckGateBlocksAppendAck(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var gateSeqs []uint64
	j.SetAckGate(func(seq uint64) error {
		gateSeqs = append(gateSeqs, seq)
		return nil
	})
	appendEntries(t, j, []Entry{
		{Kind: KindCreateFileSet, FileSet: "vol00"},
		{Kind: KindFlush, FileSet: "vol00", Image: img(2, "/a")},
	})
	if !reflect.DeepEqual(gateSeqs, []uint64{1, 2}) {
		t.Fatalf("gate saw %v, want [1 2]", gateSeqs)
	}
	gateErr := errors.New("standby unreachable")
	j.SetAckGate(func(uint64) error { return gateErr })
	if err := j.LogCreateFileSet("vol01"); !errors.Is(err, gateErr) {
		t.Fatalf("append with failing gate returned %v", err)
	}
	// The entry is still locally durable even though the gate failed.
	if got := j.DurableSeq(); got != 3 {
		t.Fatalf("DurableSeq = %d, want 3", got)
	}
}

// copyDir clones a journal directory so cleanup prefixes can be applied
// destructively.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	files, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(src, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, f.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestTornTailCleanupCrashInjection is the satellite crash case: Open's
// torn-tail cleanup is a sequence of filesystem mutations, and a crash
// after ANY prefix of them must leave a directory that recovers to the
// same durable prefix. The historical ordering (cut the torn segment
// before deleting stranded ones) failed this at prefix 1: the cut looked
// clean, so the next recovery replayed the stranded segments and
// resurrected discarded entries.
func TestTornTailCleanupCrashInjection(t *testing.T) {
	entries := []Entry{
		{Kind: KindCreateFileSet, FileSet: "vol00"},
		{Kind: KindFlush, FileSet: "vol00", Image: img(2, "/a")},
		{Kind: KindCreateFileSet, FileSet: "vol01"},
		{Kind: KindFlush, FileSet: "vol01", Image: img(2, "/x")},
		{Kind: KindFlush, FileSet: "vol00", Image: img(3, "/a", "/b")},
		{Kind: KindFlush, FileSet: "vol01", Image: img(3, "/x", "/y")},
	}
	for _, headerless := range []bool{false, true} {
		name := "torn-frame"
		if headerless {
			name = "headerless-segment"
		}
		t.Run(name, func(t *testing.T) {
			// One entry per segment, then damage segment 3 so segments 4..6
			// are stranded past the tear.
			dir := t.TempDir()
			j, _, _, err := Open(dir, Options{SegmentBytes: headerLen + 1})
			if err != nil {
				t.Fatal(err)
			}
			appendEntries(t, j, entries)
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
			if err != nil || len(segs) != len(entries) {
				t.Fatalf("want %d one-entry segments, got %v (%v)", len(entries), segs, err)
			}
			victim := segs[2]
			data, err := os.ReadFile(victim)
			if err != nil {
				t.Fatal(err)
			}
			pos := len(data) - 1 // inside the entry's payload
			if headerless {
				pos = 2 // inside the segment magic
			}
			data[pos] ^= 0x5a
			if err := os.WriteFile(victim, data, 0o644); err != nil {
				t.Fatal(err)
			}

			_, info, err := replayDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !info.Truncated || len(info.strandedSegments) != 3 {
				t.Fatalf("setup did not strand 3 segments: %+v", info)
			}
			ops := tornTailCleanupOps(info)
			want := expectedPrefix(entries, 2)
			for k := 0; k <= len(ops); k++ {
				crash := copyDir(t, dir)
				reOps := tornTailCleanupOps(remapInfo(info, crash))
				for i := 0; i < k; i++ {
					if err := reOps[i].apply(); err != nil {
						t.Fatalf("cleanup step %d: %v", i, err)
					}
				}
				st, _, err := Recover(crash)
				if err != nil {
					t.Fatalf("crash after %d/%d cleanup steps: Recover: %v", k, len(ops), err)
				}
				if got := st.Images(); !reflect.DeepEqual(got, want) {
					t.Fatalf("crash after %d/%d cleanup steps resurrected or lost entries:\n got %+v\nwant %+v",
						k, len(ops), got, want)
				}
			}
			// And the fully-cleaned directory no longer reports a tear.
			clean := copyDir(t, dir)
			for _, op := range tornTailCleanupOps(remapInfo(info, clean)) {
				if err := op.apply(); err != nil {
					t.Fatal(err)
				}
			}
			if _, info2, err := Recover(clean); err != nil || info2.Truncated {
				t.Fatalf("directory still torn after full cleanup: %+v, %v", info2, err)
			}
		})
	}
}

// remapInfo rebases a RecoverInfo's paths into another directory.
func remapInfo(info RecoverInfo, to string) RecoverInfo {
	out := info
	out.TruncatedSegment = filepath.Join(to, filepath.Base(info.TruncatedSegment))
	out.strandedSegments = nil
	for _, p := range info.strandedSegments {
		out.strandedSegments = append(out.strandedSegments, filepath.Join(to, filepath.Base(p)))
	}
	return out
}
