package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"anufs/internal/live"
	"anufs/internal/obs"
	"anufs/internal/sharedisk"
)

// TestJournalFailStop: the first failed fsync ends appending for good. The
// batch that failed, everything already queued behind it and every later
// Log* call get that error, wrapped in ErrFailed; the counter says so; and
// the directory recovers to exactly the entries acknowledged before it.
func TestJournalFailStop(t *testing.T) {
	dir := t.TempDir()
	reg := obs.New()
	j, _, _, err := Open(dir, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.LogCreateFileSet("vol"); err != nil {
		t.Fatal(err)
	}
	if err := logDelta(j, 0, "vol", oneRecord(1)); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(CtrWriteFailed).Load(); got != 0 {
		t.Fatalf("%s = %d before any failure", CtrWriteFailed, got)
	}
	// Hold the next commit in its fsync, then fail it.
	entered, release := make(chan struct{}), make(chan struct{})
	j.mu.Lock()
	j.syncFile = func(f *os.File) error {
		j.syncFile = (*os.File).Sync // later syncs would work: they must not be reached
		entered <- struct{}{}
		<-release
		return errInjected
	}
	j.mu.Unlock()
	inFlight, err := j.LogDelta(0, "vol", oneRecord(2))
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	const behind = 5
	var queued []sharedisk.LogWait
	for i := 0; i < behind; i++ {
		w, err := j.LogDelta(0, "vol", oneRecord(uint64(3+i)))
		if err != nil {
			t.Fatalf("an append behind a commit in flight was refused at the door: %v", err)
		}
		queued = append(queued, w)
	}
	release <- struct{}{}
	refused := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrFailed) || !errors.Is(err, errInjected) {
			t.Fatalf("%s = %v, want ErrFailed wrapping the injected cause", what, err)
		}
	}
	refused("the batch whose fsync failed", inFlight.Wait())
	for i, w := range queued {
		refused(fmt.Sprintf("queued append %d", i), w.Wait())
	}
	refused("LogCreateFileSet afterwards", j.LogCreateFileSet("late"))
	refused("LogFlush afterwards", j.LogFlush("vol", img(9, "/late")))
	refused("LogDrop afterwards", j.LogDrop("vol"))
	refused("LogDelta afterwards", logDelta(j, 0, "vol", oneRecord(9)))
	refused("AppendShipped afterwards", j.AppendShipped([]Shipped{{Seq: 3, Payload: encodeEntry(delta("vol", 3, nil, "/s"))}}))
	if got := reg.Counter(CtrWriteFailed).Load(); got != 1 {
		t.Fatalf("%s = %d, want 1", CtrWriteFailed, got)
	}
	if got := j.DurableSeq(); got != 2 {
		t.Fatalf("DurableSeq = %d, want 2", got)
	}
	st, info, err := Recover(dir)
	if err != nil || info.Truncated || info.LastSeq != 2 {
		t.Fatalf("Recover = %+v, %v; want exactly the 2 entries before the failed batch", info, err)
	}
	requireImagesEqual(t, st, map[string]sharedisk.Image{"vol": {Version: 2, Records: oneRecord(1).Puts}})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// The stop is the process's, not the directory's: a restart appends again.
	j2, _, info, err := Open(dir, Options{})
	if err != nil || info.LastSeq != 2 {
		t.Fatalf("reopen = %+v, %v", info, err)
	}
	if err := logDelta(j2, 0, "vol", oneRecord(2)); err != nil {
		t.Fatalf("append after a restart: %v", err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotCutAheadOfQueuedAppends: a snapshot's cut may hold flushes
// that are queued for the log but not written yet — the store applies
// before the journal appends, and the owner no longer waits in between.
// Replay skips the deltas at or below the cut's version when they arrive
// in the tail, so the directory recovers to the live store.
func TestSnapshotCutAheadOfQueuedAppends(t *testing.T) {
	dir := t.TempDir()
	j, st, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := sharedisk.NewDurable(st, j, 0)
	if err := d.CreateFileSet("vol"); err != nil {
		t.Fatal(err)
	}
	v, err := flushDelta(d, "vol", oneRecord(1))
	if err != nil {
		t.Fatal(err)
	}
	var commits []sharedisk.Commit
	err = j.Snapshot(func(encode func(map[string]sharedisk.Image) error) error {
		// The committer is paused for the cut: these three are applied and
		// queued, and cannot reach the log before the snapshot is taken.
		for i := 0; i < 3; i++ {
			nv, c, err := d.FlushDelta(0, "vol", sharedisk.Delta{Base: v, Puts: map[string]sharedisk.Record{fmt.Sprintf("/q%d", i): {Size: int64(i)}}})
			if err != nil {
				t.Errorf("flush %d during the cut: %v", i, err)
				break
			}
			v, commits = nv, append(commits, c)
		}
		return encode(d.Store.Images())
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range commits {
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	rec, info, err := Recover(dir)
	if err != nil || info.Truncated || info.SnapshotSeq != 2 || info.Entries != 3 {
		t.Fatalf("Recover = %+v, %v; want the snapshot at seq 2 and a 3-entry tail", info, err)
	}
	requireImagesEqual(t, rec, d.Store.Images())
	if im, _ := rec.Load("vol"); im.Version != v || len(im.Records) != 4 {
		t.Fatalf("recovered %+v, want version %d with /a and the three queued puts", im, v)
	}
	// The log goes on from there.
	if _, err := flushDelta(d, "vol", sharedisk.Delta{Base: v, Removes: []string{"/q0"}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rec, _, err = Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	requireImagesEqual(t, rec, d.Store.Images())
}

// TestOneOwnerSharesFsyncs: durable 1-record batches on four file sets of
// ONE owner, from eight goroutines, over a real journal whose first fsync
// is held until more appends have queued behind it. The owner starts a
// flush and serves the next task, so appends from one owner meet in one
// batch: fewer fsyncs than durable batches (records_per_fsync > 1), while
// each writer still gets its own outcome and everything acknowledged
// recovers.
func TestOneOwnerSharesFsyncs(t *testing.T) {
	const writers, each, fileSets = 8, 200, 4
	dir := t.TempDir()
	reg := obs.New()
	j, st, _, err := Open(dir, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close() // after c.Stop: the cluster does not own the journal
	cfg := live.DefaultConfig()
	cfg.OpCost = 0
	cfg.Window = 1 << 40 // no tuning round: one owner throughout
	c, err := live.NewCluster(cfg, sharedisk.NewDurable(st, j, 0), map[int]float64{0: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for fs := 0; fs < fileSets; fs++ {
		if err := c.CreateFileSet(fmt.Sprintf("vol%d", fs)); err != nil {
			t.Fatal(err)
		}
	}
	base := reg.Counters()
	// The first fsync is held until three appends are in it or queued
	// behind it — four file sets each owe one, whatever the interleaving —
	// so some batch must carry two. Count-based, no clock; the seam runs on
	// the committer, which owns j.batch.
	j.mu.Lock()
	j.syncFile = func(f *os.File) error {
		j.syncFile = (*os.File).Sync
		for len(j.batch)+len(j.appendCh) < 3 {
			runtime.Gosched()
		}
		return f.Sync()
	}
	j.mu.Unlock()

	var mu sync.Mutex
	acked := map[string]map[string]int64{}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fs := fmt.Sprintf("vol%d", w%fileSets)
			path := fmt.Sprintf("/w%d", w)
			for i := 1; i <= each; i++ {
				out, err := c.Batch(fs, []live.BatchOp{{Kind: opFor(i), Path: path, Rec: sharedisk.Record{Size: int64(i)}}})
				if err == nil {
					err = out[0].Err
				}
				if err == nil {
					err = c.Checkpoint(fs)
				}
				if err != nil {
					t.Errorf("writer %d batch %d: %v", w, i, err)
					return
				}
				mu.Lock()
				if acked[fs] == nil {
					acked[fs] = map[string]int64{}
				}
				acked[fs][path] = int64(i)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	now := reg.Counters()
	batches := int64(writers * each)
	fsyncs, records := now[CtrFsyncs]-base[CtrFsyncs], now[CtrRecords]-base[CtrRecords]
	if fsyncs >= batches || records <= fsyncs {
		t.Fatalf("%d durable batches journaled %d records in %d fsyncs; want fewer fsyncs than batches", batches, records, fsyncs)
	}
	rec, info, err := Recover(dir)
	if err != nil || info.Truncated {
		t.Fatalf("Recover = %+v, %v", info, err)
	}
	for fs, paths := range acked {
		im, err := rec.Load(fs)
		if err != nil {
			t.Fatal(err)
		}
		for path, size := range paths {
			if im.Records[path].Size != size {
				t.Errorf("%s%s recovered size %d, acknowledged %d", fs, path, im.Records[path].Size, size)
			}
		}
	}
}

func opFor(i int) string {
	if i == 1 {
		return "create"
	}
	return "update"
}

// buildConcurrentLog journals a history the way the split owner does: three
// writers, one file set each, queue several deltas in version order without
// waiting in between and collect the outcomes afterwards, so frames of
// different file sets interleave as the committer found them. The entries
// are returned in log order.
func buildConcurrentLog(t *testing.T) (dir string, seg string, entries []Entry) {
	t.Helper()
	dir = t.TempDir()
	j, _, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 3, 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		fs := fmt.Sprintf("vol%02d", w)
		if err := j.LogCreateFileSet(fs); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var waits []sharedisk.LogWait
			for v := uint64(1); v <= each; v++ {
				d := sharedisk.Delta{Base: v, Puts: map[string]sharedisk.Record{fmt.Sprintf("/v%d", v): {Size: int64(v)}}}
				if v > 2 {
					d.Removes = []string{fmt.Sprintf("/v%d", v-2)}
				}
				wait, err := j.LogDelta(0, fs, d)
				if err != nil {
					t.Error(err)
					return
				}
				waits = append(waits, wait)
			}
			for _, wait := range waits {
				if err := wait.Wait(); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	for _, s := range shipAll(t, j.NewTailer(1)) {
		e, err := DecodeEntry(s.Payload)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if len(entries) != writers*(each+1) {
		t.Fatalf("log holds %d entries, want %d", len(entries), writers*(each+1))
	}
	// Queue position is log position: each file set's deltas are in the log
	// in the order they were queued, or a delta would not find the version
	// before it and the log would not replay.
	if _, err := fold(nil, entries); err != nil {
		t.Fatalf("the concurrently written log does not replay: %v", err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want exactly 1 segment, got %v (%v)", segs, err)
	}
	return dir, segs[0], entries
}

// logBuilders are the histories the every-byte crash suites run over.
var logBuilders = map[string]func(*testing.T) (string, string, []Entry){
	"sequential":            buildLog,
	"concurrent two-phase":  buildConcurrentLog,
	"standby after a reset": buildResetStandbyLog,
}

// enqueueWaiter opens a journal whose fsync costs nothing and which offers
// every entry to a shipper-like hook (a copy into a buffer it keeps), and
// returns one warmed delta append: enqueue, then wait.
func enqueueWaiter(tb testing.TB) func() error {
	j, _, _, err := Open(tb.TempDir(), Options{SegmentBytes: 1 << 40, Obs: obs.New()})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { j.Close() })
	j.mu.Lock()
	j.syncFile = func(*os.File) error { return nil }
	j.mu.Unlock()
	var slot []byte
	j.SetOffer(func(_, _ uint64, payload []byte) { slot = append(slot[:0], payload...) })
	e := benchDelta()
	d := sharedisk.Delta{Base: e.Image.Version - 1, Puts: e.Image.Records, Removes: e.Removed}
	appendOne := func() error {
		w, err := j.LogDelta(0, e.FileSet, d)
		if err != nil {
			return err
		}
		return w.Wait()
	}
	if err := appendOne(); err != nil { // warm the pooled request
		tb.Fatal(err)
	}
	return appendOne
}

// TestLogDeltaEnqueueWaitAllocFree: the two halves of a delta append
// (Journal.enqueue and appendReq.Wait) and the committer between them
// allocate nothing in steady state — no closure, channel or slice per
// append on either side, no copy the committer makes for the offer hook,
// no name looked up to count the commit.
func TestLogDeltaEnqueueWaitAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of its Puts under -race, so the pooled request reallocates")
	}
	appendOne := enqueueWaiter(t)
	if n := testing.AllocsPerRun(200, func() {
		if err := appendOne(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("LogDelta + Wait: %v allocs/op, want 0", n)
	}
}

// BenchmarkLogDeltaEnqueueWait times what TestLogDeltaEnqueueWaitAllocFree
// holds at 0 allocs/op.
func BenchmarkLogDeltaEnqueueWait(b *testing.B) {
	appendOne := enqueueWaiter(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := appendOne(); err != nil {
			b.Fatal(err)
		}
	}
}
