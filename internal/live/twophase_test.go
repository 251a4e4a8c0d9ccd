package live

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"anufs/internal/journal"
	"anufs/internal/sharedisk"
)

// heldWAL is a write-ahead log whose delta appends queue at once but become
// durable only when the test closes release: a commit held in flight.
type heldWAL struct {
	mu      sync.Mutex
	queued  []string // file sets of the deltas queued, in log order
	release chan struct{}
}

type heldWait chan struct{}

func (w heldWait) Wait() error { <-w; return nil }

func (w *heldWAL) LogDelta(_ uint64, fileSet string, _ sharedisk.Delta) (sharedisk.LogWait, error) {
	w.mu.Lock()
	w.queued = append(w.queued, fileSet)
	w.mu.Unlock()
	return heldWait(w.release), nil
}

// waitQueued blocks until n deltas are in the log's queue and returns their
// file sets.
func (w *heldWAL) waitQueued(n int) []string {
	for {
		w.mu.Lock()
		q := append([]string(nil), w.queued...)
		w.mu.Unlock()
		if len(q) >= n {
			return q
		}
		runtime.Gosched()
	}
}

func (w *heldWAL) LogCreateFileSet(string) error                                     { return nil }
func (w *heldWAL) LogFlush(string, sharedisk.Image) error                            { return nil }
func (w *heldWAL) LogDrop(string) error                                              { return nil }
func (w *heldWAL) Snapshot(func(func(map[string]sharedisk.Image) error) error) error { return nil }
func (w *heldWAL) Close() error                                                      { return nil }

// oneOwnerCluster serves the named file sets from a single server over a
// Durable whose log is wal.
func oneOwnerCluster(t *testing.T, wal sharedisk.WAL, st *sharedisk.Store, fileSets ...string) *Cluster {
	t.Helper()
	cfg := durableConfig()
	cfg.Window = 1 << 40 // no tuning round: one owner throughout
	c, err := NewCluster(cfg, sharedisk.NewDurable(st, wal, 0), map[int]float64{0: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	for _, fs := range fileSets {
		if err := c.CreateFileSet(fs); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// durableWrite is what the wire server does for a durable batch: apply as
// one owner task, then checkpoint.
func durableWrite(c *Cluster, fileSet, kind, path string, size int64) error {
	out, err := c.Batch(fileSet, []BatchOp{{Kind: kind, Path: path, Rec: sharedisk.Record{Size: size}}})
	if err == nil {
		err = out[0].Err
	}
	if err == nil {
		err = c.Checkpoint(fileSet)
	}
	return err
}

// TestOwnerServesWhileCommitInFlight: with one file set's commit held in
// the log, the same owner answers a Stat on a second file set and starts —
// queues in the log — a durable write on a third. At the parent commit the
// owner goroutine slept inside the first flush and both would block.
func TestOwnerServesWhileCommitInFlight(t *testing.T) {
	wal := &heldWAL{release: make(chan struct{})}
	c := oneOwnerCluster(t, wal, sharedisk.NewStore(0), "held", "read", "second")
	if err := c.Create("read", "/r", sharedisk.Record{Size: 7}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	write := func(fs string) {
		defer wg.Done()
		if err := durableWrite(c, fs, "create", "/w", 1); err != nil {
			t.Errorf("durable write on %q: %v", fs, err)
		}
	}
	wg.Add(1)
	go write("held")
	wal.waitQueued(1) // the first commit is in flight and stays there
	if rec, err := c.Stat("read", "/r"); err != nil || rec.Size != 7 {
		t.Fatalf("Stat on another file set of the same owner = %+v, %v", rec, err)
	}
	wg.Add(1)
	go write("second")
	if q := wal.waitQueued(2); q[0] != "held" || q[1] != "second" {
		t.Fatalf("log queue = %v, want the second write queued behind the held one", q)
	}
	// Applied means visible, on the owner and on the shared disk, before it
	// means durable.
	if rec, err := c.Stat("second", "/w"); err != nil || rec.Size != 1 {
		t.Fatalf("Stat of a write whose commit is in flight = %+v, %v", rec, err)
	}
	close(wal.release)
	wg.Wait()
}

// TestReleaseWaitsForCommitsInFlight: ReleaseFileSet — the donor half of a
// handoff — returns only after the flushes of that file set started before
// it are durable, even though it finds nothing dirty itself.
func TestReleaseWaitsForCommitsInFlight(t *testing.T) {
	wal := &heldWAL{release: make(chan struct{})}
	c := oneOwnerCluster(t, wal, sharedisk.NewStore(0), "vol")
	written := make(chan error, 1)
	go func() { written <- durableWrite(c, "vol", "create", "/w", 1) }()
	wal.waitQueued(1)
	var events atomic.Int32
	released := make(chan int32, 1)
	go func() {
		if err := c.ReleaseFileSet("vol"); err != nil {
			t.Errorf("release: %v", err)
		}
		released <- events.Add(1)
	}()
	for i := 0; i < 1000; i++ { // room for a release that does not wait to show itself
		runtime.Gosched()
	}
	durable := events.Add(1)
	close(wal.release)
	if at := <-released; at < durable {
		t.Fatal("release returned while a flush of the file set was still in flight")
	}
	if err := <-written; err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentDurableWritesOneFileSet: 8 goroutines x 200 durable
// 1-record batches on one file set, through the cluster, over a real
// journal. The owner starts flushes back to back without waiting for the
// log, so this is where order could break: the file set's deltas must sit
// in the journal strictly version-ordered, every acknowledged write must be
// in what the journal recovers, and that must equal the live store.
func TestConcurrentDurableWritesOneFileSet(t *testing.T) {
	const writers, each = 8, 200
	dir := t.TempDir()
	jnl, st, _, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jnl.Close() }) // after the cluster's Stop
	c := oneOwnerCluster(t, jnl, st, "vol")
	acked := make([]int64, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			path := fmt.Sprintf("/w%d", w)
			for i := int64(1); i <= each; i++ {
				kind := "update"
				if i == 1 {
					kind = "create"
				}
				if err := durableWrite(c, "vol", kind, path, i); err != nil {
					t.Errorf("writer %d write %d: %v", w, i, err)
					return
				}
				acked[w] = i
			}
		}(w)
	}
	wg.Wait()
	live, err := st.Load("vol")
	if err != nil {
		t.Fatal(err)
	}

	version := uint64(1)
	tl := jnl.NewTailer(1)
	defer tl.Close()
	for {
		ents, _, err := tl.Next(256, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) == 0 {
			break
		}
		for _, s := range ents {
			e, err := journal.DecodeEntry(s.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if e.Kind != journal.KindDelta {
				continue
			}
			if e.Image.Version != version+1 {
				t.Fatalf("seq %d: delta to version %d follows version %d", s.Seq, e.Image.Version, version)
			}
			version = e.Image.Version
		}
	}
	if version != live.Version {
		t.Fatalf("journal ends at version %d, the store is at %d", version, live.Version)
	}
	rec, info, err := journal.Recover(dir)
	if err != nil || info.Truncated {
		t.Fatalf("Recover = %+v, %v", info, err)
	}
	got, err := rec.Load("vol")
	if err != nil {
		t.Fatal(err)
	}
	for w, n := range acked {
		if size := got.Records[fmt.Sprintf("/w%d", w)].Size; size != n {
			t.Errorf("writer %d: recovered size %d, acknowledged %d", w, size, n)
		}
	}
	if got.Version != live.Version || len(got.Records) != len(live.Records) {
		t.Fatalf("recovered version %d with %d records, live store has version %d with %d",
			got.Version, len(got.Records), live.Version, len(live.Records))
	}
	for path, r := range live.Records {
		if g := got.Records[path]; g.Size != r.Size || !g.ModTime.Equal(r.ModTime) {
			t.Fatalf("%s: recovered %+v, live %+v", path, g, r)
		}
	}
}
