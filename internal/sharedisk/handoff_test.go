package sharedisk

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestInstallCreatesAndReplaces(t *testing.T) {
	s := NewStore(0)
	im := Image{Version: 4, Records: map[string]Record{"/a": {Size: 1}}}
	if err := s.Install("vol00", im); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load("vol00")
	if err != nil || got.Version != 4 || got.Records["/a"].Size != 1 {
		t.Fatalf("Load after install = %+v, %v", got, err)
	}
	// Same-version reinstall (idempotent retry) and upgrades are fine.
	if err := s.Install("vol00", im); err != nil {
		t.Fatal(err)
	}
	im.Version = 9
	if err := s.Install("vol00", im); err != nil {
		t.Fatal(err)
	}
	// Downgrades are not.
	im.Version = 2
	if err := s.Install("vol00", im); err == nil || !strings.Contains(err.Error(), "downgrade") {
		t.Fatalf("downgrade install err = %v", err)
	}
	// Zero-value images get the same defaults CreateFileSet would.
	if err := s.Install("vol01", Image{}); err != nil {
		t.Fatal(err)
	}
	got, err = s.Load("vol01")
	if err != nil || got.Version != 1 || got.Records == nil {
		t.Fatalf("zero-value install = %+v, %v", got, err)
	}
}

func TestDropFileSet(t *testing.T) {
	s := NewStore(0)
	if err := s.CreateFileSet("vol00"); err != nil {
		t.Fatal(err)
	}
	if err := s.DropFileSet("vol00"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("vol00"); err == nil {
		t.Fatal("dropped file set still loads")
	}
	if err := s.DropFileSet("vol00"); err == nil {
		t.Fatal("double drop succeeded")
	}
}

// fakeWAL records calls. failNext makes the next Log* call fail without
// recording it, as a journal whose append did not reach the disk — and, as
// the WAL contract requires, every call after it fails the same way. With
// release set, delta appends queue but become durable only once it is
// closed. Snapshot encodes the cut it is lent with snapErr as encode's
// answer, and counts the calls.
type fakeWAL struct {
	creates, deltas, flushes, drops []string
	failNext                        bool
	failed                          error
	release                         chan struct{}
	snapErr                         error
	snapshots                       int
}

func (w *fakeWAL) log(list *[]string, fs string) error {
	if w.failNext {
		w.failNext = false
		w.failed = errors.New("fakeWAL: injected append failure")
	}
	if w.failed != nil {
		return w.failed
	}
	*list = append(*list, fs)
	return nil
}

// fakeWait is a queued delta's wait: durable once release is closed (at
// once when nil).
type fakeWait struct{ release chan struct{} }

func (w fakeWait) Wait() error {
	if w.release != nil {
		<-w.release
	}
	return nil
}

func (w *fakeWAL) LogDelta(_ uint64, fs string, _ Delta) (LogWait, error) {
	if err := w.log(&w.deltas, fs); err != nil {
		return nil, err
	}
	return fakeWait{w.release}, nil
}

func (w *fakeWAL) LogCreateFileSet(fs string) error  { return w.log(&w.creates, fs) }
func (w *fakeWAL) LogFlush(fs string, _ Image) error { return w.log(&w.flushes, fs) }
func (w *fakeWAL) LogDrop(fs string) error           { return w.log(&w.drops, fs) }
func (w *fakeWAL) Close() error                      { return nil }

func (w *fakeWAL) Snapshot(cut func(func(map[string]Image) error) error) error {
	w.snapshots++
	return cut(func(map[string]Image) error { return w.snapErr })
}

func TestDurableInstallJournalsFlush(t *testing.T) {
	wal := &fakeWAL{}
	d := NewDurable(NewStore(0), wal, 0)
	if err := d.Install("vol00", Image{Version: 3, Records: map[string]Record{"/x": {}}}); err != nil {
		t.Fatal(err)
	}
	if len(wal.flushes) != 1 || wal.flushes[0] != "vol00" {
		t.Fatalf("install journaled %v, want one vol00 flush", wal.flushes)
	}
	if err := d.DropFileSet("vol00"); err != nil {
		t.Fatal(err)
	}
	if len(wal.drops) != 1 || wal.drops[0] != "vol00" {
		t.Fatalf("drop journaled %v", wal.drops)
	}
}

// TestDurableFlushIsTwoPhase: when FlushDelta returns, the image has the
// delta at the new version and the entry is in the log's queue; only the
// Commit's Wait blocks for durability, so a second flush can be started —
// and queued behind the first — before the first is durable.
func TestDurableFlushIsTwoPhase(t *testing.T) {
	wal := &fakeWAL{release: make(chan struct{})}
	d := NewDurable(NewStore(0), wal, 0)
	if err := d.CreateFileSet("vol00"); err != nil {
		t.Fatal(err)
	}
	v1, c1, err := d.FlushDelta(0, "vol00", Delta{Base: 1, Puts: map[string]Record{"/a": {Size: 1}}})
	if err != nil || v1 != 2 {
		t.Fatalf("first flush = %d, %v", v1, err)
	}
	v2, c2, err := d.FlushDelta(0, "vol00", Delta{Base: v1, Puts: map[string]Record{"/b": {Size: 2}}})
	if err != nil || v2 != 3 {
		t.Fatalf("second flush, started with the first still in flight = %d, %v", v2, err)
	}
	if im, _ := d.Load("vol00"); im.Version != 3 || len(im.Records) != 2 {
		t.Fatalf("image before either commit = %+v, want both deltas at version 3", im)
	}
	if got, want := wal.deltas, []string{"vol00", "vol00"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("queued %v, want %v", got, want)
	}
	close(wal.release)
	if err := c1.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableFailedAppendIsNotRepaired: a delta the store took but the
// journal refused comes back as the applied version WITH an error — the
// caller adopts the version and keeps the paths dirty. The log has a hole
// there and, failing stop, takes nothing above it: Durable journals no
// image to paper over it, and every later flush is refused too.
func TestDurableFailedAppendIsNotRepaired(t *testing.T) {
	wal := &fakeWAL{}
	d := NewDurable(NewStore(0), wal, 0)
	for _, fs := range []string{"vol00", "vol01"} {
		if err := d.CreateFileSet(fs); err != nil {
			t.Fatal(err)
		}
	}
	put := func(fs, path string, base uint64) (uint64, error) {
		v, c, err := d.FlushDelta(0, fs, Delta{Base: base, Puts: map[string]Record{path: {Size: 1}}})
		if err != nil {
			return v, err
		}
		return v, c.Wait()
	}
	if v, err := put("vol00", "/a", 1); err != nil || v != 2 {
		t.Fatalf("first delta = %d, %v", v, err)
	}
	wal.failNext = true
	v, err := put("vol00", "/b", 2)
	if err == nil || v != 3 {
		t.Fatalf("failed append returned version %d, err %v; want the applied version 3 and an error", v, err)
	}
	if v, err := put("vol00", "/c", 3); err == nil || v != 4 {
		t.Fatalf("flush after a failed append = %d, %v; want version 4 and the log's refusal", v, err)
	}
	if _, err := put("vol01", "/other", 1); err == nil {
		t.Fatal("another file set's flush was acknowledged by a failed log")
	}
	if got, want := wal.deltas, []string{"vol00"}; !reflect.DeepEqual(got, want) {
		t.Errorf("deltas journaled for %v, want %v", got, want)
	}
	if len(wal.flushes) != 0 {
		t.Errorf("images journaled for %v, want none (there is no re-base)", wal.flushes)
	}
	im, _ := d.Load("vol00")
	if len(im.Records) != 3 || im.Version != 4 {
		t.Errorf("store holds %+v, want /a../c at version 4", im)
	}
}

// Interface conformance the fleet layer relies on.
var (
	_ Installer = (*Store)(nil)
	_ Installer = (*Durable)(nil)
	_ Dropper   = (*Store)(nil)
	_ Dropper   = (*Durable)(nil)
)

// TestFailedAutomaticSnapshotDoesNotFailTheWrite: a snapshot made due by a
// durable write runs in that write's commit wait, but the entry is durable
// whatever the snapshot does — the write succeeds and the next snapshot is
// tried at the next entry. Only an explicit Snapshot reports the failure.
func TestFailedAutomaticSnapshotDoesNotFailTheWrite(t *testing.T) {
	wal := &fakeWAL{snapErr: errors.New("fakeWAL: injected snapshot failure")}
	d := NewDurable(NewStore(0), wal, 1)
	if err := d.CreateFileSet("vol00"); err != nil {
		t.Fatalf("create whose snapshot failed: %v", err)
	}
	v := uint64(1)
	for i := 0; i < 3; i++ {
		nv, c, err := d.FlushDelta(0, "vol00", Delta{Base: v, Puts: map[string]Record{"/a": {Size: int64(i)}}})
		if err != nil {
			t.Fatalf("flush %d: %v", i, err)
		}
		if err := c.Wait(); err != nil {
			t.Fatalf("flush %d, whose snapshot failed: %v", i, err)
		}
		v = nv
	}
	if wal.snapshots != 4 {
		t.Fatalf("%d snapshots tried over 4 entries with snapshotEvery 1", wal.snapshots)
	}
	if err := d.Snapshot(); !errors.Is(err, wal.snapErr) {
		t.Fatalf("explicit snapshot = %v, want the WAL's failure", err)
	}
}
