package journal

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"anufs/internal/sharedisk"
)

// offerLog records what the committer offers, as a shipper would: a copy.
type offerLog struct {
	mu   sync.Mutex
	seen []Shipped
	tr   []uint64
}

func (o *offerLog) hook(seq, trace uint64, payload []byte) {
	o.mu.Lock()
	o.seen = append(o.seen, Shipped{Seq: seq, Payload: append([]byte(nil), payload...)})
	o.tr = append(o.tr, trace)
	o.mu.Unlock()
}

func (o *offerLog) seqs() []uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]uint64, len(o.seen))
	for i, s := range o.seen {
		out[i] = s.Seq
	}
	return out
}

// TestOfferPrecedesFsync: an entry is offered — sequence, trace and the
// payload the log will hold — when the committer takes it, before its fsync
// starts; entries queued behind a commit in flight are offered when the
// next batch takes them, again ahead of that batch's fsync.
func TestOfferPrecedesFsync(t *testing.T) {
	j, _, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.LogCreateFileSet("vol"); err != nil {
		t.Fatal(err)
	}
	var offers offerLog
	j.SetOffer(offers.hook)
	entered, release := heldSync(j)

	first, err := j.LogDelta(7, "vol", oneRecord(1))
	if err != nil {
		t.Fatal(err)
	}
	<-entered // the fsync of seq 2 is in flight
	if got := offers.seqs(); !reflect.DeepEqual(got, []uint64{2}) || offers.tr[0] != 7 {
		t.Fatalf("offered %v (traces %v) with the first fsync in flight, want [2] under trace 7", got, offers.tr)
	}
	if got := j.DurableSeq(); got != 1 {
		t.Fatalf("DurableSeq = %d while the fsync is held, want 1", got)
	}
	const behind = 4
	var queued []sharedisk.LogWait
	for i := 0; i < behind; i++ {
		w, err := j.LogDelta(0, "vol", oneRecord(uint64(2+i)))
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, w)
	}
	if got := offers.seqs(); len(got) != 1 {
		t.Fatalf("entries still in the queue were offered: %v", got)
	}
	release <- struct{}{}
	if err := first.Wait(); err != nil {
		t.Fatal(err)
	}
	<-entered // the second batch is written, its fsync held
	if got := offers.seqs(); !reflect.DeepEqual(got, []uint64{2, 3, 4, 5, 6}) {
		t.Fatalf("offered %v with the second fsync in flight, want 2..6", got)
	}
	release <- struct{}{}
	for _, w := range queued {
		if err := w.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// What was offered is what the log holds, sequence for sequence.
	logged := shipAll(t, j.NewTailer(2))
	offers.mu.Lock()
	defer offers.mu.Unlock()
	if !reflect.DeepEqual(logged, offers.seen) {
		t.Fatalf("the log holds %d entries that differ from the %d offered", len(logged), len(offers.seen))
	}
}

// TestFailedJournalStopsOffering: the batch whose fsync fails was offered —
// nobody knew yet — but nothing taken after the failure is: those sequences
// will never name an entry.
func TestFailedJournalStopsOffering(t *testing.T) {
	j, _, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.LogCreateFileSet("vol"); err != nil {
		t.Fatal(err)
	}
	var offers offerLog
	j.SetOffer(offers.hook)
	entered, release := make(chan struct{}), make(chan struct{})
	j.mu.Lock()
	j.syncFile = func(*os.File) error {
		entered <- struct{}{}
		<-release
		return errInjected
	}
	j.mu.Unlock()
	doomed, err := j.LogDelta(0, "vol", oneRecord(1))
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	behind, err := j.LogDelta(0, "vol", oneRecord(2))
	if err != nil {
		t.Fatal(err)
	}
	release <- struct{}{}
	if doomed.Wait() == nil || behind.Wait() == nil || j.LogCreateFileSet("late") == nil {
		t.Fatal("an append survived a failed fsync")
	}
	if got := offers.seqs(); !reflect.DeepEqual(got, []uint64{2}) {
		t.Fatalf("offered %v, want only the batch taken before the failure: [2]", got)
	}
}

// TestSleepHelperEndsWithCommitter: Close returns with both of a windowed
// journal's goroutines gone (counted, since other tests leave journals open).
func TestSleepHelperEndsWithCommitter(t *testing.T) {
	running := func() int {
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		return strings.Count(stacks, "(*Journal).sleeper(") + strings.Count(stacks, "(*Journal).run(")
	}
	before := running()
	j, _, _, err := Open(t.TempDir(), Options{FsyncInterval: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.LogCreateFileSet(fmt.Sprintf("vol%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := running(); got != before+2 {
		t.Fatalf("a windowed journal runs %d goroutines, want committer and sleep helper", got-before)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	for attempt := 0; running() != before; attempt++ {
		if attempt == 100 {
			t.Fatalf("%d journal goroutines outlived Close", running()-before)
		}
		runtime.Gosched() // closing its channels is a goroutine's last act but one
	}
}

// TestAppendShippedSyncsThroughTheSeam: a standby's fsync is the journal's
// like any other. Held, the shipped entries are written but not durable —
// not acknowledged; failed, the standby's journal stops as a primary's does.
func TestAppendShippedSyncsThroughTheSeam(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	entered, release := heldSync(j)
	done := make(chan error, 1)
	go func() { done <- j.AppendShipped(shipped(1, resetOld[:2])) }()
	<-entered
	if got := j.DurableSeq(); got != 0 {
		t.Fatalf("DurableSeq = %d with the standby's fsync held, want 0", got)
	}
	release <- struct{}{}
	if err := <-done; err != nil || j.DurableSeq() != 2 {
		t.Fatalf("AppendShipped = %v, DurableSeq %d", err, j.DurableSeq())
	}
	failNextSync(j)
	if err := j.AppendShipped(shipped(3, resetOld[2:3])); !errors.Is(err, ErrFailed) || !errors.Is(err, errInjected) {
		t.Fatalf("AppendShipped over a failing fsync = %v, want ErrFailed wrapping the cause", err)
	}
	if err := j.AppendShipped(shipped(3, resetOld[2:3])); !errors.Is(err, ErrFailed) || j.DurableSeq() != 2 {
		t.Fatalf("a failed standby journal took more: %v, DurableSeq %d", err, j.DurableSeq())
	}
	if _, info, err := Recover(dir); err != nil || info.LastSeq != 2 || info.Truncated {
		t.Fatalf("Recover = %+v, %v; want the 2 acknowledged entries", info, err)
	}
}

// shipped frames entries for AppendShipped, numbered from first.
func shipped(first uint64, entries []Entry) []Shipped {
	out := make([]Shipped, len(entries))
	for i, e := range entries {
		out[i] = Shipped{Seq: first + uint64(i), Payload: encodeEntry(e)}
	}
	return out
}

// The standby the reset tests start from: twelve entries over several
// segments with a snapshot of its own part-way, i.e. every kind of file a
// reset has to get rid of. The cut that replaces it sits at sequence 7 —
// below what the standby holds — and disagrees with the old history, as a
// new incarnation's would.
var (
	resetOld = []Entry{
		{Kind: KindCreateFileSet, FileSet: "vol00"},
		{Kind: KindCreateFileSet, FileSet: "vol01"},
		delta("vol00", 2, nil, "/a"),
		delta("vol01", 2, nil, "/x"),
		delta("vol00", 3, nil, "/b"),
		delta("vol00", 4, nil, "/c"),
		delta("vol01", 3, nil, "/y"),
		delta("vol00", 5, nil, "/tentative"),
		delta("vol00", 6, nil, "/tentative2"),
		delta("vol01", 4, nil, "/tentative3"),
		{Kind: KindCreateFileSet, FileSet: "vol02"},
		delta("vol02", 2, nil, "/tentative4"),
	}
	resetCut = map[string]sharedisk.Image{
		"vol00": img(4, "/a", "/b", "/c"),
		"vol01": img(3, "/x", "/y"),
		"vol03": img(2, "/only-the-new-incarnation-made-this"),
	}
	// resetAfter is what the new incarnation ships next, from sequence 8.
	resetAfter = []Entry{
		delta("vol00", 5, []string{"/a"}, "/d"),
		{Kind: KindCreateFileSet, FileSet: "vol02"},
		{Kind: KindFlush, FileSet: "vol01", Image: img(9, "/adopted")},
		delta("vol02", 2, nil, "/e"),
		{Kind: KindDrop, FileSet: "vol03"},
		delta("vol00", 6, nil, "/f"),
	}
)

const resetSeq = 7

// buildOldStandby writes the standby directory described above and returns
// it closed, with the state it recovers to.
func buildOldStandby(t *testing.T) (dir string, old map[string]sharedisk.Image) {
	t.Helper()
	dir = t.TempDir()
	j, _, _, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendShipped(shipped(1, resetOld[:6])); err != nil {
		t.Fatal(err)
	}
	if err := j.Snapshot(func() map[string]sharedisk.Image { return expectedPrefix(resetOld, 6) }); err != nil {
		t.Fatal(err)
	}
	for i := 6; i < len(resetOld); i++ {
		if err := j.AppendShipped(shipped(uint64(i+1), resetOld[i:i+1])); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(segs) < 3 || len(snaps) != 1 {
		t.Fatalf("setup: want several segments and one snapshot, got %v %v", segs, snaps)
	}
	return dir, expectedPrefix(resetOld, len(resetOld))
}

// TestResetToReplacesAStandbyThatIsAhead: the cut is below the standby's
// durable sequence and still replaces everything: the boundary moves back,
// the directory is the cut's snapshot and one empty segment, the log takes
// the new incarnation's entries from the cut on, and a restart agrees.
func TestResetToReplacesAStandbyThatIsAhead(t *testing.T) {
	dir, _ := buildOldStandby(t)
	j, _, info, err := Open(dir, Options{})
	if err != nil || info.LastSeq != uint64(len(resetOld)) {
		t.Fatalf("Open = %+v, %v", info, err)
	}
	// A plain snapshot at that sequence is a no-op here; a reset is not.
	if err := j.InstallSnapshot(resetSeq, resetCut); err != nil || j.DurableSeq() != uint64(len(resetOld)) {
		t.Fatalf("InstallSnapshot below the boundary: %v, DurableSeq %d", err, j.DurableSeq())
	}
	if err := j.ResetTo(resetSeq, resetCut); err != nil {
		t.Fatal(err)
	}
	if got := j.DurableSeq(); got != resetSeq {
		t.Fatalf("DurableSeq = %d after the reset, want %d", got, resetSeq)
	}
	names := dirNames(t, dir)
	if want := []string{"snap-0000000000000007.snap", "wal-0000000000000008.log"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("directory after the reset: %v, want %v", names, want)
	}
	if err := j.AppendShipped(shipped(resetSeq+1, resetAfter)); err != nil {
		t.Fatalf("the log does not continue from the cut: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st, rinfo, err := Recover(dir)
	if err != nil || rinfo.Truncated || rinfo.SnapshotSeq != resetSeq || rinfo.LastSeq != resetSeq+uint64(len(resetAfter)) {
		t.Fatalf("Recover = %+v, %v", rinfo, err)
	}
	requireImagesEqual(t, st, expectedOver(resetCut, resetAfter, len(resetAfter)))
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range files {
		names = append(names, f.Name())
	}
	return names
}

// TestResetCrashInjection abandons the standby's directory after each
// filesystem step of a reset — the temporary file half written, written,
// renamed to its reset name (the commit point), each deletion, the final
// rename — and opens what is left: it is the complete old state before the
// commit point and the complete cut from it on, never a mix, and either way
// a journal that takes the entries that follow. The rejected design, dropping
// the segments above the cut in place, fails this wherever the standby dies
// between writing the cut and deleting the last such segment.
func TestResetCrashInjection(t *testing.T) {
	oldDir, old := buildOldStandby(t)

	// The first half, as writeSnapshot does it, step by step.
	cutBytes := func() []byte {
		scratch := t.TempDir()
		p, err := writeSnapshot(scratch, "reset-", resetSeq, resetCut)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}()
	resetName := func(dir string) string { return snapshotName(dir, "reset-", resetSeq) }
	firstHalf := []func(dir string) error{
		func(dir string) error { return os.WriteFile(resetName(dir)+".tmp", cutBytes[:len(cutBytes)/2], 0o644) },
		func(dir string) error { return os.WriteFile(resetName(dir)+".tmp", cutBytes, 0o644) },
		func(dir string) error { return os.Rename(resetName(dir)+".tmp", resetName(dir)) },
	}
	commit := len(firstHalf) // this many steps done: the cut is the state
	total := -1
	for k := 0; total < 0 || k <= total; k++ {
		crash := copyDir(t, oldDir)
		for i := 0; i < k && i < commit; i++ {
			if err := firstHalf[i](crash); err != nil {
				t.Fatal(err)
			}
		}
		if k >= commit {
			ops, err := resetFinishOps(crash, resetName(crash), resetSeq)
			if err != nil {
				t.Fatal(err)
			}
			total = commit + len(ops)
			for i := 0; i < k-commit; i++ {
				if err := ops[i].apply(); err != nil {
					t.Fatalf("finish step %d: %v", i, err)
				}
			}
		}
		want, wantSeq, next := old, uint64(len(resetOld)), []Entry{delta("vol02", 3, nil, "/next")}
		if k >= commit {
			want, wantSeq, next = resetCut, resetSeq, resetAfter
		}
		if st, info, err := Recover(crash); err != nil || info.LastSeq != wantSeq || !reflect.DeepEqual(st.Images(), want) {
			t.Fatalf("crash after %d steps: Recover = %+v, %v:\n got %+v\nwant %+v", k, info, err, st.Images(), want)
		}
		j, st, info, err := Open(crash, Options{})
		if err != nil || info.LastSeq != wantSeq {
			t.Fatalf("crash after %d steps: Open = %+v, %v", k, info, err)
		}
		requireImagesEqual(t, st, want)
		if k >= commit {
			if names := dirNames(t, crash); len(names) != 2 || names[0] != "snap-0000000000000007.snap" {
				t.Fatalf("crash after %d steps: Open left %v, want the cut and one segment", k, names)
			}
		}
		if err := j.AppendShipped(shipped(wantSeq+1, next)); err != nil {
			t.Fatalf("crash after %d steps: the log does not continue: %v", k, err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if st, _, err := Recover(crash); err != nil || !reflect.DeepEqual(st.Images(), expectedOver(want, next, len(next))) {
			t.Fatalf("crash after %d steps: state after continuing differs (%v)", k, err)
		}
	}
	if total != commit+len(dirNames(t, oldDir))+3 {
		t.Fatalf("the plan has %d steps for a directory of %d files", total, len(dirNames(t, oldDir)))
	}
}

// buildResetStandbyLog is a log builder for the every-byte suites: a standby
// that held the old history, was reset, and then took the new incarnation's
// entries. Its one segment continues from the cut's snapshot.
func buildResetStandbyLog(t *testing.T) (dir string, seg string, entries []Entry) {
	t.Helper()
	dir, _ = buildOldStandby(t)
	j, _, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.ResetTo(resetSeq, resetCut); err != nil {
		t.Fatal(err)
	}
	for i := range resetAfter { // one ship each, as a live stream would
		if err := j.AppendShipped(shipped(resetSeq+1+uint64(i), resetAfter[i:i+1])); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want exactly 1 segment, got %v (%v)", segs, err)
	}
	return dir, segs[0], resetAfter
}

// windowNominal is the window the benchmark and the guard run: 1 ms, the
// length the numbers recorded for the timer it replaced were taken at.
const windowNominal = time.Millisecond

// observeWindow measures how long a lone append waits in a journal whose
// fsync costs nothing — the gather window as a client sees it — over n
// appends. With wake set, a loopback peer answers a byte 0.4 ms into each
// window, which is when a standby's ack arrives and what stretched the
// timer this sleep replaced: the process is woken in epoll_wait, part-way.
func observeWindow(tb testing.TB, n int, wake bool) time.Duration {
	j, _, _, err := Open(tb.TempDir(), Options{FsyncInterval: windowNominal, SegmentBytes: 1 << 40})
	if err != nil {
		tb.Fatal(err)
	}
	defer j.Close()
	j.mu.Lock()
	j.syncFile = func(*os.File) error { return nil }
	j.mu.Unlock()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	defer ln.Close()
	go func() { // the peer: answers each byte 0.4 ms later, timed in the kernel
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		b := make([]byte, 1)
		for {
			if _, err := io.ReadFull(c, b); err != nil {
				return
			}
			sleepFor(400 * time.Microsecond)
			if _, err := c.Write(b); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	defer c.Close()
	echoed := make(chan struct{})
	go func() { // parked in the netpoller, as a shipper waiting for its ack is
		b := make([]byte, 1)
		for {
			if _, err := io.ReadFull(c, b); err != nil {
				return
			}
			echoed <- struct{}{}
		}
	}()

	d := oneRecord(1)
	if err := j.LogCreateFileSet("vol"); err != nil {
		tb.Fatal(err)
	}
	var total time.Duration
	for i := 0; i < n; i++ {
		if wake {
			if _, err := c.Write([]byte{1}); err != nil {
				tb.Fatal(err)
			}
		}
		start := time.Now()
		if err := logDelta(j, 0, "vol", d); err != nil {
			tb.Fatal(err)
		}
		total += time.Since(start)
		d.Base++
		if wake {
			<-echoed
		}
	}
	return total / time.Duration(n)
}

// BenchmarkGatherWindow reports the observed length of a 1 ms gather window
// on an otherwise idle process and on one woken 0.4 ms in.
func BenchmarkGatherWindow(b *testing.B) {
	for _, wake := range []bool{false, true} {
		name := "idle"
		if wake {
			name = "woken"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportMetric(float64(observeWindow(b, b.N, wake).Microseconds()), "window-µs")
		})
	}
}

// TestGatherWindowHoldsWhenWoken is the loose guard on the above: a window
// must not stretch by half because something else woke the process. (The
// timer it replaced read ≈ 1.57 ms here.)
func TestGatherWindowHoldsWhenWoken(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("wall-clock guard: not under -short or -race")
	}
	if got := observeWindow(t, 200, true); got >= windowNominal*3/2 {
		t.Fatalf("a %s window lasts %s when the process is woken part-way", windowNominal, got)
	}
}
