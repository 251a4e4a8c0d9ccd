package metaserver

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anufs/internal/sharedisk"
)

func newPair(t *testing.T) (*sharedisk.Store, *Server) {
	t.Helper()
	disk := sharedisk.NewStore(0)
	if err := disk.CreateFileSet("proj"); err != nil {
		t.Fatal(err)
	}
	srv := New(1, disk)
	if err := srv.Acquire("proj"); err != nil {
		t.Fatal(err)
	}
	return disk, srv
}

func TestAcquireServeOps(t *testing.T) {
	_, srv := newPair(t)
	if !srv.Owns("proj") {
		t.Fatal("Owns false after Acquire")
	}
	if err := srv.Create("proj", "/a.txt", sharedisk.Record{Size: 10, Owner: "alice"}); err != nil {
		t.Fatal(err)
	}
	rec, err := srv.Stat("proj", "/a.txt")
	if err != nil || rec.Size != 10 {
		t.Fatalf("Stat = %+v, %v", rec, err)
	}
	if rec.ModTime.IsZero() {
		t.Fatal("Create did not stamp ModTime")
	}
	if err := srv.Update("proj", "/a.txt", sharedisk.Record{Size: 20}); err != nil {
		t.Fatal(err)
	}
	rec, _ = srv.Stat("proj", "/a.txt")
	if rec.Size != 20 {
		t.Fatalf("Update lost: %+v", rec)
	}
	if err := srv.Remove("proj", "/a.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Stat("proj", "/a.txt"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Stat after Remove: %v", err)
	}
}

func TestOpErrors(t *testing.T) {
	_, srv := newPair(t)
	if err := srv.Create("proj", "", sharedisk.Record{}); err == nil {
		t.Fatal("empty path accepted")
	}
	if err := srv.Create("proj", "/a", sharedisk.Record{}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Create("proj", "/a", sharedisk.Record{}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if err := srv.Update("proj", "/nope", sharedisk.Record{}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update missing: %v", err)
	}
	if err := srv.Remove("proj", "/nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("remove missing: %v", err)
	}
}

func TestNotOwner(t *testing.T) {
	disk, _ := newPair(t)
	other := New(2, disk)
	if err := other.Create("proj", "/b", sharedisk.Record{}); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("Create on un-owned: %v", err)
	}
	if _, err := other.Stat("proj", "/b"); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("Stat on un-owned: %v", err)
	}
	if _, err := other.List("proj", "/"); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("List on un-owned: %v", err)
	}
	if err := other.Release("proj"); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("Release on un-owned: %v", err)
	}
	if err := other.Checkpoint("proj"); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("Checkpoint on un-owned: %v", err)
	}
}

func TestDoubleAcquireRejected(t *testing.T) {
	_, srv := newPair(t)
	if err := srv.Acquire("proj"); err == nil {
		t.Fatal("double acquire succeeded")
	}
}

func TestMoveHandOffPreservesState(t *testing.T) {
	disk, a := newPair(t)
	if err := a.Create("proj", "/x", sharedisk.Record{Size: 7}); err != nil {
		t.Fatal(err)
	}
	// Shed from a, acquire on b — the paper's move protocol.
	if err := a.Release("proj"); err != nil {
		t.Fatal(err)
	}
	if a.Owns("proj") {
		t.Fatal("a still owns after Release")
	}
	if a.DirtyFlushes() != 1 {
		t.Fatalf("DirtyFlushes = %d, want 1", a.DirtyFlushes())
	}
	b := New(2, disk)
	if err := b.Acquire("proj"); err != nil {
		t.Fatal(err)
	}
	rec, err := b.Stat("proj", "/x")
	if err != nil || rec.Size != 7 {
		t.Fatalf("state lost across move: %+v, %v", rec, err)
	}
}

func TestReleaseCleanSkipsFlush(t *testing.T) {
	disk, srv := newPair(t)
	v0, _ := disk.Version("proj")
	if err := srv.Release("proj"); err != nil {
		t.Fatal(err)
	}
	v1, _ := disk.Version("proj")
	if v1 != v0 {
		t.Fatalf("clean release flushed: version %d -> %d", v0, v1)
	}
	if srv.DirtyFlushes() != 0 {
		t.Fatal("clean release counted as dirty flush")
	}
}

func TestCrashLosesUnflushedState(t *testing.T) {
	disk, srv := newPair(t)
	if err := srv.Create("proj", "/lost", sharedisk.Record{Size: 1}); err != nil {
		t.Fatal(err)
	}
	srv.Crash()
	if srv.Owns("proj") {
		t.Fatal("still owns after crash")
	}
	// Recovery on another server sees the last flushed image (empty).
	b := New(2, disk)
	if err := b.Acquire("proj"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Stat("proj", "/lost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unflushed write survived a crash: %v", err)
	}
}

func TestCheckpointBoundsLoss(t *testing.T) {
	disk, srv := newPair(t)
	if err := srv.Create("proj", "/kept", sharedisk.Record{Size: 1}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Checkpoint("proj"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Create("proj", "/lost", sharedisk.Record{Size: 2}); err != nil {
		t.Fatal(err)
	}
	srv.Crash()
	b := New(2, disk)
	if err := b.Acquire("proj"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Stat("proj", "/kept"); err != nil {
		t.Fatalf("checkpointed write lost: %v", err)
	}
	if _, err := b.Stat("proj", "/lost"); !errors.Is(err, ErrNotFound) {
		t.Fatal("post-checkpoint write survived crash")
	}
}

func TestCheckpointIdempotentWhenClean(t *testing.T) {
	disk, srv := newPair(t)
	if err := srv.Checkpoint("proj"); err != nil {
		t.Fatal(err)
	}
	v, _ := disk.Version("proj")
	if v != 1 {
		t.Fatalf("clean checkpoint flushed: version %d", v)
	}
}

func TestCheckpointThenReleaseNoStaleFlush(t *testing.T) {
	// Regression guard: Checkpoint must update the cached version, or the
	// release-time flush would be stale-rejected.
	_, srv := newPair(t)
	if err := srv.Create("proj", "/a", sharedisk.Record{}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Checkpoint("proj"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Create("proj", "/b", sharedisk.Record{}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Release("proj"); err != nil {
		t.Fatalf("release after checkpoint: %v", err)
	}
}

func TestList(t *testing.T) {
	_, srv := newPair(t)
	for _, p := range []string{"/dir/a", "/dir/b", "/other/c"} {
		if err := srv.Create("proj", p, sharedisk.Record{}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := srv.List("proj", "/dir/")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "/dir/a" || got[1] != "/dir/b" {
		t.Fatalf("List = %v", got)
	}
	all, _ := srv.List("proj", "/")
	if len(all) != 3 {
		t.Fatalf("List all = %v", all)
	}
}

func TestOwnedSorted(t *testing.T) {
	disk := sharedisk.NewStore(0)
	srv := New(1, disk)
	for _, fs := range []string{"zz", "aa", "mm"} {
		if err := disk.CreateFileSet(fs); err != nil {
			t.Fatal(err)
		}
		if err := srv.Acquire(fs); err != nil {
			t.Fatal(err)
		}
	}
	got := srv.Owned()
	if len(got) != 3 || got[0] != "aa" || got[2] != "zz" {
		t.Fatalf("Owned = %v", got)
	}
}

func TestConcurrentOps(t *testing.T) {
	_, srv := newPair(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				path := "/w" + string(rune('a'+g))
				_ = srv.Create("proj", path, sharedisk.Record{Size: int64(i)})
				_, _ = srv.Stat("proj", path)
				_ = srv.Remove("proj", path)
			}
		}()
	}
	wg.Wait()
}

// TestModTimeRule: Create and Update share one rule — a zero ModTime is
// stamped, a supplied one is kept — so a record's bytes do not depend on
// which of the two wrote it last.
func TestModTimeRule(t *testing.T) {
	_, srv := newPair(t)
	given := time.Unix(1700000000, 42)
	write := map[string]func(path string, rec sharedisk.Record) error{
		"create": func(path string, rec sharedisk.Record) error { return srv.Create("proj", path, rec) },
		"update": func(path string, rec sharedisk.Record) error {
			if err := srv.Create("proj", path, sharedisk.Record{ModTime: given.Add(-time.Hour)}); err != nil {
				return err
			}
			return srv.Update("proj", path, rec)
		},
	}
	for name, op := range write {
		before := time.Now()
		if err := op("/"+name+"/zero", sharedisk.Record{Size: 1}); err != nil {
			t.Fatal(err)
		}
		if rec, _ := srv.Stat("proj", "/"+name+"/zero"); rec.ModTime.Before(before) {
			t.Errorf("%s with a zero ModTime stored %v, want it stamped", name, rec.ModTime)
		}
		if err := op("/"+name+"/given", sharedisk.Record{Size: 1, ModTime: given}); err != nil {
			t.Fatal(err)
		}
		if rec, _ := srv.Stat("proj", "/"+name+"/given"); !rec.ModTime.Equal(given) {
			t.Errorf("%s with ModTime %v stored %v, want it kept", name, given, rec.ModTime)
		}
	}
}

// deltaDisk records the deltas a server flushes and can refuse one the way
// a durable disk does when its journal append fails: the image takes the
// delta, the version steps, and an error comes back with it.
type deltaDisk struct {
	*sharedisk.Store
	deltas   []sharedisk.Delta
	failNext bool
}

func (d *deltaDisk) FlushDelta(trace uint64, fileSet string, dl sharedisk.Delta) (uint64, sharedisk.Commit, error) {
	d.deltas = append(d.deltas, dl)
	v, c, err := d.Store.FlushDelta(trace, fileSet, dl)
	if err == nil && d.failNext {
		d.failNext = false
		err = errors.New("deltaDisk: injected journal failure")
	}
	return v, c, err
}

func newDeltaPair(t *testing.T) (*deltaDisk, *Server) {
	t.Helper()
	disk := &deltaDisk{Store: sharedisk.NewStore(0)}
	if err := disk.CreateFileSet("proj"); err != nil {
		t.Fatal(err)
	}
	srv := New(1, disk)
	if err := srv.Acquire("proj"); err != nil {
		t.Fatal(err)
	}
	return disk, srv
}

// TestCheckpointFlushesOnlyDirtyPaths: a checkpoint hands the disk the
// records touched since the last one — never the image — based on the
// version the last flush produced, and leaves the file set clean.
func TestCheckpointFlushesOnlyDirtyPaths(t *testing.T) {
	disk, srv := newDeltaPair(t)
	for _, p := range []string{"/a", "/b", "/c"} {
		if err := srv.Create("proj", p, sharedisk.Record{Size: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Checkpoint("proj"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Update("proj", "/b", sharedisk.Record{Size: 2}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Remove("proj", "/c"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Checkpoint("proj"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Checkpoint("proj"); err != nil { // clean: no flush
		t.Fatal(err)
	}
	if len(disk.deltas) != 2 {
		t.Fatalf("%d flushes, want 2", len(disk.deltas))
	}
	first, second := disk.deltas[0], disk.deltas[1]
	if first.Base != 1 || len(first.Puts) != 3 || len(first.Removes) != 0 {
		t.Errorf("first delta = %+v, want 3 puts over version 1", first)
	}
	if second.Base != 2 || len(second.Puts) != 1 || second.Puts["/b"].Size != 2 ||
		len(second.Removes) != 1 || second.Removes[0] != "/c" {
		t.Errorf("second delta = %+v, want put /b and remove /c over version 2", second)
	}
	im, _ := disk.Load("proj")
	if im.Version != 3 || len(im.Records) != 2 || im.Records["/b"].Size != 2 {
		t.Errorf("disk image = %+v", im)
	}
}

// TestFailedFlushKeepsPathsDirty: when the disk takes a delta but cannot
// make it durable, the server adopts the stepped version and keeps the
// delta's paths dirty, so the next checkpoint is neither stale nor short.
func TestFailedFlushKeepsPathsDirty(t *testing.T) {
	disk, srv := newDeltaPair(t)
	if err := srv.Create("proj", "/a", sharedisk.Record{Size: 1}); err != nil {
		t.Fatal(err)
	}
	disk.failNext = true
	if err := srv.Checkpoint("proj"); err == nil {
		t.Fatal("checkpoint reported a failed flush as durable")
	}
	if err := srv.Create("proj", "/b", sharedisk.Record{Size: 2}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Checkpoint("proj"); err != nil {
		t.Fatalf("checkpoint after a failed flush: %v", err)
	}
	retry := disk.deltas[len(disk.deltas)-1]
	if retry.Base != 2 || len(retry.Puts) != 2 {
		t.Errorf("retry delta = %+v, want /a and /b over version 2", retry)
	}
	if err := srv.Checkpoint("proj"); err != nil || len(disk.deltas) != 2 {
		t.Errorf("file set still dirty after a durable flush: %v, %d flushes", err, len(disk.deltas))
	}
}

// heldWAL is a write-ahead log whose delta appends queue at once and become
// durable, or fail, only when the test says so: each LogDelta hands back a
// wait that blocks until the test sends that entry's outcome.
type heldWAL struct {
	mu     sync.Mutex
	queued []chan error // one per LogDelta, in log order
}

type heldWait chan error

func (w heldWait) Wait() error { return <-w }

func (w *heldWAL) LogDelta(uint64, string, sharedisk.Delta) (sharedisk.LogWait, error) {
	ch := make(chan error, 1)
	w.mu.Lock()
	w.queued = append(w.queued, ch)
	w.mu.Unlock()
	return heldWait(ch), nil
}

// entries returns the outcome channels of the deltas queued so far.
func (w *heldWAL) entries() []chan error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]chan error(nil), w.queued...)
}

func (w *heldWAL) LogCreateFileSet(string) error                                     { return nil }
func (w *heldWAL) LogFlush(string, sharedisk.Image) error                            { return nil }
func (w *heldWAL) LogDrop(string) error                                              { return nil }
func (w *heldWAL) Snapshot(func(func(map[string]sharedisk.Image) error) error) error { return nil }
func (w *heldWAL) Close() error                                                      { return nil }

func newHeldPair(t *testing.T) (*heldWAL, *sharedisk.Durable, *Server) {
	t.Helper()
	wal := &heldWAL{}
	disk := sharedisk.NewDurable(sharedisk.NewStore(0), wal, 0)
	if err := disk.CreateFileSet("proj"); err != nil {
		t.Fatal(err)
	}
	srv := New(1, disk)
	if err := srv.Acquire("proj"); err != nil {
		t.Fatal(err)
	}
	return wal, disk, srv
}

// TestCheckpointStartsThenWaits: when CheckpointTraced returns, the records
// are on the disk's image, the cache has adopted the new version and the
// entry is queued — all before the log says durable; operations and further
// checkpoints proceed meanwhile, each wait gets its own outcome, and a
// failed one leaves its paths dirty.
func TestCheckpointStartsThenWaits(t *testing.T) {
	wal, disk, srv := newHeldPair(t)
	if err := srv.Create("proj", "/a", sharedisk.Record{Size: 1}); err != nil {
		t.Fatal(err)
	}
	first, err := srv.CheckpointTraced(0, "proj")
	if err != nil {
		t.Fatal(err)
	}
	if im, _ := disk.Load("proj"); im.Version != 2 || im.Records["/a"].Size != 1 || len(wal.entries()) != 1 {
		t.Fatalf("after the start: image %+v, %d entries queued; want /a at version 2, 1 queued", im, len(wal.entries()))
	}
	// The owner goes on serving while the first commit is in flight.
	if err := srv.Create("proj", "/b", sharedisk.Record{Size: 2}); err != nil {
		t.Fatal(err)
	}
	second, err := srv.CheckpointTraced(0, "proj")
	if err != nil {
		t.Fatalf("second checkpoint while the first is in flight: %v", err)
	}
	if im, _ := disk.Load("proj"); im.Version != 3 || len(wal.entries()) != 2 {
		t.Fatalf("second start: image version %d, %d queued; want 3, 2", im.Version, len(wal.entries()))
	}
	// Nothing is dirty now, but the records of whoever asks next rode the
	// second flush: a clean checkpoint must wait for it, not return at once.
	third, err := srv.CheckpointTraced(0, "proj")
	if err != nil || len(wal.entries()) != 2 {
		t.Fatalf("clean checkpoint: %v, %d queued; want no new entry", err, len(wal.entries()))
	}
	thirdDone := make(chan error, 1)
	go func() { thirdDone <- third.Wait() }()
	select {
	case err := <-thirdDone:
		t.Fatalf("a clean checkpoint returned (%v) before the flush carrying its records was durable", err)
	default:
	}
	failure := errors.New("heldWAL: injected commit failure")
	wal.entries()[0] <- nil
	wal.entries()[1] <- failure
	if err := first.Wait(); err != nil {
		t.Fatalf("first wait = %v", err)
	}
	if err := second.Wait(); !errors.Is(err, failure) {
		t.Fatalf("second wait = %v, want the injected failure", err)
	}
	if err := <-thirdDone; !errors.Is(err, failure) {
		t.Fatalf("clean checkpoint's wait = %v, want the failure of the flush it rode", err)
	}
	// /b is dirty again and rides the next flush, over the adopted version.
	retry, err := srv.CheckpointTraced(0, "proj")
	if err != nil || len(wal.entries()) != 3 {
		t.Fatalf("retry: %v, %d queued", err, len(wal.entries()))
	}
	wal.entries()[2] <- nil
	if err := retry.Wait(); err != nil {
		t.Fatal(err)
	}
	if im, _ := disk.Load("proj"); im.Version != 4 || im.Records["/b"].Size != 2 {
		t.Fatalf("after the retry: %+v", im)
	}
}

// TestReleaseWaitsForEarlierFlushes: a release returns only once every
// flush of the file set started before it is durable — also when nothing is
// dirty any more and the release itself has nothing to write. Order, not
// time: the release must be seen to return after the log's answer.
func TestReleaseWaitsForEarlierFlushes(t *testing.T) {
	for _, dirty := range []bool{false, true} {
		wal, _, srv := newHeldPair(t)
		if err := srv.Create("proj", "/a", sharedisk.Record{Size: 1}); err != nil {
			t.Fatal(err)
		}
		inFlight, err := srv.CheckpointTraced(0, "proj")
		if err != nil {
			t.Fatal(err)
		}
		entries := 1
		if dirty {
			if err := srv.Create("proj", "/b", sharedisk.Record{Size: 2}); err != nil {
				t.Fatal(err)
			}
			entries = 2 // the release's own flush queues behind the first
		}
		var events atomic.Int32
		released := make(chan int32, 1)
		go func() {
			if err := srv.Release("proj"); err != nil {
				t.Errorf("dirty=%v: release = %v", dirty, err)
			}
			released <- events.Add(1)
		}()
		for len(wal.entries()) < entries {
			runtime.Gosched()
		}
		for i := 0; i < 1000; i++ { // room for a release that does not wait to show itself
			runtime.Gosched()
		}
		answered := events.Add(1)
		for _, e := range wal.entries() {
			e <- nil
		}
		if at := <-released; at < answered {
			t.Fatalf("dirty=%v: release returned before the flushes ahead of it were durable", dirty)
		}
		if err := inFlight.Wait(); err != nil {
			t.Fatal(err)
		}
		if srv.Owns("proj") {
			t.Fatal("still owned after release")
		}
	}
}
