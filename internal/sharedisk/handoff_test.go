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

// fakeWAL records calls; failNext makes the next Log* call fail once
// without recording it, as a journal whose append did not reach the disk.
type fakeWAL struct {
	creates, deltas, flushes, drops []string
	failNext                        bool
}

func (w *fakeWAL) log(list *[]string, fs string) error {
	if w.failNext {
		w.failNext = false
		return errors.New("fakeWAL: injected append failure")
	}
	*list = append(*list, fs)
	return nil
}

func (w *fakeWAL) LogCreateFileSet(fs string) error            { return w.log(&w.creates, fs) }
func (w *fakeWAL) LogDelta(_ uint64, fs string, _ Delta) error { return w.log(&w.deltas, fs) }
func (w *fakeWAL) LogFlush(fs string, _ Image) error           { return w.log(&w.flushes, fs) }
func (w *fakeWAL) LogDrop(fs string) error                     { return w.log(&w.drops, fs) }
func (w *fakeWAL) Snapshot(func() map[string]Image) error      { return nil }
func (w *fakeWAL) Close() error                                { return nil }

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

// TestDurableRebasesAfterFailedAppend: a delta the store took but the
// journal did not leaves a hole replay could not cross, so the next flush
// of that file set — and only that one — journals the whole image, and
// the one after is a delta again.
func TestDurableRebasesAfterFailedAppend(t *testing.T) {
	wal := &fakeWAL{}
	d := NewDurable(NewStore(0), wal, 0)
	for _, fs := range []string{"vol00", "vol01"} {
		if err := d.CreateFileSet(fs); err != nil {
			t.Fatal(err)
		}
	}
	put := func(fs, path string, base uint64) (uint64, error) {
		return d.FlushDelta(0, fs, Delta{Base: base, Puts: map[string]Record{path: {Size: 1}}})
	}
	if v, err := put("vol00", "/a", 1); err != nil || v != 2 {
		t.Fatalf("first delta = %d, %v", v, err)
	}
	wal.failNext = true
	v, err := put("vol00", "/b", 2)
	if err == nil || v != 3 {
		t.Fatalf("failed append returned version %d, err %v; want the applied version 3 and an error", v, err)
	}
	if _, err := put("vol01", "/other", 1); err != nil {
		t.Fatal(err)
	}
	if v, err := put("vol00", "/c", 3); err != nil || v != 4 {
		t.Fatalf("re-base flush = %d, %v", v, err)
	}
	if v, err := put("vol00", "/d", 4); err != nil || v != 5 {
		t.Fatalf("delta after re-base = %d, %v", v, err)
	}
	if got, want := wal.deltas, []string{"vol00", "vol01", "vol00"}; !reflect.DeepEqual(got, want) {
		t.Errorf("deltas journaled for %v, want %v", got, want)
	}
	if got, want := wal.flushes, []string{"vol00"}; !reflect.DeepEqual(got, want) {
		t.Errorf("images journaled for %v, want %v (one re-base)", got, want)
	}
	im, _ := d.Load("vol00")
	if len(im.Records) != 4 || im.Version != 5 {
		t.Errorf("store holds %+v, want /a../d at version 5", im)
	}
}

// Interface conformance the fleet layer relies on.
var (
	_ Installer = (*Store)(nil)
	_ Installer = (*Durable)(nil)
	_ Dropper   = (*Store)(nil)
	_ Dropper   = (*Durable)(nil)
)
