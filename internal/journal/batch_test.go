package journal

import (
	"fmt"
	"os"
	"slices"
	"sync"
	"testing"
	"time"

	"anufs/internal/obs"
	"anufs/internal/sharedisk"
)

// heldSync replaces a journal's fsync with one the test holds open: every
// commit announces itself on entered and then waits for a token on release.
func heldSync(j *Journal) (entered <-chan struct{}, release chan<- struct{}) {
	e, r := make(chan struct{}), make(chan struct{})
	j.mu.Lock()
	j.syncFile = func(f *os.File) error {
		e <- struct{}{}
		<-r
		return f.Sync()
	}
	j.mu.Unlock()
	return e, r
}

func oneRecord(base uint64) sharedisk.Delta {
	return sharedisk.Delta{Base: base, Puts: map[string]sharedisk.Record{"/a": {Size: int64(base)}}}
}

// TestGroupCommitGathersBehindFsyncInFlight: an fsync in flight gathers
// too. K appends that arrive while one commit is syncing form the next
// batch — one more fsync for all of them — and every waiter is released
// with its own sequence.
func TestGroupCommitGathersBehindFsyncInFlight(t *testing.T) {
	const k = 32
	dir := t.TempDir()
	reg := obs.New()
	j, _, _, err := Open(dir, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	entered, release := heldSync(j)
	var mu sync.Mutex
	var seqs []uint64
	j.SetAckGate(func(seq uint64) error {
		mu.Lock()
		seqs = append(seqs, seq)
		mu.Unlock()
		return nil
	})
	var wg sync.WaitGroup
	appendOne := func(w int) {
		defer wg.Done()
		if err := j.LogCreateFileSet(fmt.Sprintf("vol%02d", w)); err != nil {
			t.Error(err)
		}
	}
	wg.Add(1)
	go appendOne(0)
	<-entered // the first commit is in flight, alone
	wg.Add(k)
	for w := 1; w <= k; w++ {
		go appendOne(w)
	}
	for len(j.appendCh) < k { // the committer is held in its fsync, so these only queue
		time.Sleep(time.Millisecond)
	}
	release <- struct{}{}
	<-entered // the second commit: everything that queued behind the first
	release <- struct{}{}
	wg.Wait()

	if recs, fsyncs, most := reg.Counter(CtrRecords).Load(), reg.Counter(CtrFsyncs).Load(), reg.Counter(CtrMaxBatch).Load(); recs != k+1 || fsyncs != 2 || most != k {
		t.Fatalf("%d records in %d fsyncs, largest batch %d; want %d in 2, largest %d", recs, fsyncs, most, k+1, k)
	}
	slices.Sort(seqs)
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("waiters were released with sequences %v, want each of 1..%d once", seqs, k+1)
		}
	}
	if len(seqs) != k+1 {
		t.Fatalf("%d waiters released, want %d", len(seqs), k+1)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, info, err := Recover(dir); err != nil || info.LastSeq != k+1 || info.Truncated {
		t.Fatalf("Recover = %+v, %v; want %d entries", info, err, k+1)
	}
}

// TestCommitSignalNotBlockedByFsyncInFlight: CommitSignal returns while the
// committer holds mu through an fsync, so a tailer arming its wait never
// queues behind the commit it waits for — the signal has its own lock,
// sigMu, and nothing holds that across a write or an fsync. The fsync is
// released only after CommitSignal has returned: a regression deadlocks
// here, and go test -timeout prints the stacks.
func TestCommitSignalNotBlockedByFsyncInFlight(t *testing.T) {
	j, _, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	entered, release := heldSync(j)
	committed := make(chan error, 1)
	go func() { committed <- j.LogCreateFileSet("vol") }()
	<-entered
	sig := j.CommitSignal()
	release <- struct{}{}
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	<-sig // the commit that was in flight closes it
}

// TestLoneAppendCommitsWithoutGatherWait: with nothing else queued, an
// append goes to its own write+fsync — one record, one sync. The first waits
// for no company at all (TestFreshJournalMeasuresItsWindow); later ones wait
// one measured fsync and still commit alone. The bound is thousands of
// fsyncs wide, not a tuned sleep.
func TestLoneAppendCommitsWithoutGatherWait(t *testing.T) {
	reg := obs.New()
	j, _, _, err := Open(t.TempDir(), Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := uint64(1); i <= 5; i++ {
		start := time.Now()
		if err := logDelta(j, 0, "vol", oneRecord(i)); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took > 5*time.Second {
			t.Fatalf("lone append %d took %v", i, took)
		}
	}
	if recs, fsyncs, most := reg.Counter(CtrRecords).Load(), reg.Counter(CtrFsyncs).Load(), reg.Counter(CtrMaxBatch).Load(); recs != 5 || fsyncs != 5 || most != 1 {
		t.Fatalf("%d records in %d fsyncs, largest batch %d; want 5 in 5, largest 1", recs, fsyncs, most)
	}
}

// TestGatherWindowAmortizesFsyncs: with a gather window and 64 concurrent
// writers, the appends that arrive inside one window share its fsync, so
// fsyncs are far fewer than records — and every one of them recovers.
func TestGatherWindowAmortizesFsyncs(t *testing.T) {
	dir := t.TempDir()
	reg := obs.New()
	j, _, _, err := Open(dir, Options{FsyncInterval: 2 * time.Millisecond, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 64, 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fs := fmt.Sprintf("vol%02d", w)
			if err := j.LogCreateFileSet(fs); err != nil {
				t.Error(err)
				return
			}
			for i := uint64(1); i < each; i++ {
				if err := logDelta(j, 0, fs, oneRecord(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	records, fsyncs := reg.Counter(CtrRecords).Load(), reg.Counter(CtrFsyncs).Load()
	if records != writers*each {
		t.Fatalf("records = %d, want %d", records, writers*each)
	}
	if fsyncs*2 > records {
		t.Fatalf("the gather window did not amortize: %d fsyncs for %d records", fsyncs, records)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st, info, err := Recover(dir)
	if err != nil || info.LastSeq != uint64(records) || len(st.FileSets()) != writers {
		t.Fatalf("Recover = %d file sets, %+v, %v; want %d file sets, %d entries", len(st.FileSets()), info, err, writers, records)
	}
}

// TestFreshJournalMeasuresItsWindow: a journal with the default options has
// measured no fsync when its first append arrives, so that append asks for no
// gather window; every later batch waits the median of the fsyncs so far.
// The fsyncs are injected through the seam at 2 ms or more each, so the
// window the journal reports is at least that — order, not a clock bound.
func TestFreshJournalMeasuresItsWindow(t *testing.T) {
	const injected = 2 * time.Millisecond
	reg := obs.New()
	j, _, _, err := Open(t.TempDir(), Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.mu.Lock()
	j.syncFile = func(*os.File) error {
		sleepFor(injected)
		return nil
	}
	j.mu.Unlock()
	window := reg.Counter(CtrGatherWindow)
	if err := j.LogCreateFileSet("vol"); err != nil {
		t.Fatal(err)
	}
	if got := window.Load(); got != 0 {
		t.Fatalf("a fresh journal's first append asked for a %d µs window, want none", got)
	}
	for i := uint64(1); i <= 3; i++ {
		if err := logDelta(j, 0, "vol", oneRecord(i)); err != nil {
			t.Fatal(err)
		}
		if got := window.Load(); got < injected.Microseconds() {
			t.Fatalf("append %d waited a %d µs window behind fsyncs of %v or more", i+1, got, injected)
		}
	}
}

// TestFsyncMedian drives the window's median with fed durations: nothing
// before the first fsync, a step followed once it fills half the ring in
// either direction, and a single stall ignored.
func TestFsyncMedian(t *testing.T) {
	var r fsyncRing
	if got := r.median(); got != 0 {
		t.Fatalf("empty ring: median %v, want 0", got)
	}
	r.add(80 * time.Microsecond)
	if got := r.median(); got != 80*time.Microsecond {
		t.Fatalf("one fsync: median %v, want it", got)
	}
	step := func(from, to time.Duration) {
		t.Helper()
		for range fsyncRingLen {
			r.add(from)
		}
		for k := 1; k <= fsyncRingLen; k++ {
			r.add(to)
			got := r.median()
			switch {
			case k < fsyncRingLen/2 && got != from:
				t.Fatalf("%d of %d fsyncs at %v after %v: median %v moved early", k, fsyncRingLen, to, from, got)
			case k > fsyncRingLen/2 && got != to:
				t.Fatalf("%d of %d fsyncs at %v after %v: median %v did not follow", k, fsyncRingLen, to, from, got)
			}
		}
	}
	step(80*time.Microsecond, 300*time.Microsecond)
	step(300*time.Microsecond, 80*time.Microsecond)

	for range fsyncRingLen {
		r.add(80 * time.Microsecond)
	}
	r.add(50 * time.Millisecond)
	if got := r.median(); got != 80*time.Microsecond {
		t.Fatalf("one 50 ms stall moved the median to %v", got)
	}
	if n := testing.AllocsPerRun(100, func() { r.median() }); n != 0 {
		t.Fatalf("median: %v allocs/op, want 0", n)
	}
}

// BenchmarkGroupCommit: 64 concurrent appenders of a 1-record delta, with
// group commit and with its reference — one fsync per record.
func BenchmarkGroupCommit(b *testing.B) {
	for _, arm := range []struct {
		name string
		opts Options
	}{{"group", Options{}}, {"per-record-fsync", Options{noGroupCommit: true}}} {
		b.Run(arm.name, func(b *testing.B) {
			const writers = 64
			reg := obs.New()
			arm.opts.Obs = reg
			j, _, _, err := Open(b.TempDir(), arm.opts)
			if err != nil {
				b.Fatal(err)
			}
			defer j.Close()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					fs := fmt.Sprintf("vol%02d", w)
					for i := w; i < b.N; i += writers {
						if err := logDelta(j, 0, fs, oneRecord(uint64(i))); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "appends/sec")
			if recs := reg.Counter(CtrRecords).Load(); recs > 0 {
				b.ReportMetric(float64(reg.Counter(CtrFsyncs).Load())/float64(recs), "fsyncs/op")
			}
		})
	}
}
