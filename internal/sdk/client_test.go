package sdk

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"anufs/internal/obs"
	"anufs/internal/sharedisk"
	"anufs/internal/wire"
)

// Without batching, the client is a routed typed API: writes land on the
// owning daemon and reads see them.
func TestClientUnbatched(t *testing.T) {
	f := startFleet(t, 2)
	c, err := NewClient(Options{Authority: f.authority(), Timeout: 5 * time.Second, Budget: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, fs := range []string{"vol00", "vol01"} {
		if err := c.CreateFileSet(fs); err != nil {
			t.Fatal(err)
		}
		if err := c.Create(fs, "/a", sharedisk.Record{Size: 3}); err != nil {
			t.Fatal(err)
		}
		if err := c.Update(fs, "/a", sharedisk.Record{Size: 4}); err != nil {
			t.Fatal(err)
		}
		rec, err := c.Stat(fs, "/a")
		if err != nil || rec.Size != 4 {
			t.Fatalf("%s stat = %+v, %v", fs, rec, err)
		}
		paths, err := c.List(fs, "/")
		if err != nil || len(paths) != 1 {
			t.Fatalf("%s list = %v, %v", fs, paths, err)
		}
		if err := c.Remove(fs, "/a"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Stat(fs, "/a"); err == nil {
			t.Fatalf("%s stat after remove succeeded", fs)
		}
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
}

// With batching on, concurrent small writes coalesce into far fewer round
// trips, every caller still learns its own outcome, and Stat flushes the
// file set first so a client reads its own writes.
func TestClientBatchingCoalesces(t *testing.T) {
	f := startFleet(t, 2)
	reg := obs.New()
	c, err := NewClient(Options{
		Authority:  f.authority(),
		Timeout:    5 * time.Second,
		Budget:     5 * time.Second,
		BatchDelay: 20 * time.Millisecond,
		MaxBatch:   32,
		Obs:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, fs := range []string{"vol00", "vol01"} {
		if err := c.CreateFileSet(fs); err != nil {
			t.Fatal(err)
		}
	}

	const writers = 100
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fs := fmt.Sprintf("vol%02d", i%2)
			errs[i] = c.Create(fs, fmt.Sprintf("/f%03d", i), sharedisk.Record{Size: int64(i + 1)})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	for i := 0; i < writers; i++ {
		fs := fmt.Sprintf("vol%02d", i%2)
		rec, err := c.Stat(fs, fmt.Sprintf("/f%03d", i))
		if err != nil || rec.Size != int64(i+1) {
			t.Fatalf("stat %d = %+v, %v", i, rec, err)
		}
	}

	ops := reg.Counter(CtrBatchedOps).Load()
	batches := reg.Counter(CtrBatchesSent).Load()
	if ops != writers {
		t.Fatalf("batched ops = %d, want %d", ops, writers)
	}
	if batches == 0 || batches >= writers {
		t.Fatalf("batches = %d for %d concurrent writes: no coalescing", batches, writers)
	}
	t.Logf("%d writes coalesced into %d batches", ops, batches)
}

// A batched item's per-item error reaches exactly its caller; the rest of
// the batch is unaffected.
func TestClientBatchedErrorIsPerItem(t *testing.T) {
	f := startFleet(t, 1)
	c, err := NewClient(Options{
		Authority:  f.authority(),
		Timeout:    5 * time.Second,
		Budget:     5 * time.Second,
		BatchDelay: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateFileSet("vol00"); err != nil {
		t.Fatal(err)
	}
	if err := c.Create("vol00", "/dup", sharedisk.Record{Size: 1}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var dupErr, okErr error
	wg.Add(2)
	go func() { defer wg.Done(); dupErr = c.Create("vol00", "/dup", sharedisk.Record{Size: 2}) }()
	go func() { defer wg.Done(); okErr = c.Create("vol00", "/ok", sharedisk.Record{Size: 3}) }()
	wg.Wait()
	if dupErr == nil {
		t.Fatal("duplicate create succeeded")
	}
	if okErr != nil {
		t.Fatalf("good create in the same batch failed: %v", okErr)
	}
}

// The explicit Batch API ships pre-grouped items in one round trip with
// index-aligned results.
func TestClientExplicitBatch(t *testing.T) {
	f := startFleet(t, 1)
	c, err := NewClient(Options{Authority: f.authority(), Timeout: 5 * time.Second, Budget: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateFileSet("vol00"); err != nil {
		t.Fatal(err)
	}
	results, err := c.Batch("vol00", []wire.BatchItem{
		{Op: wire.OpCreate, Path: "/a", Record: &sharedisk.Record{Size: 1}},
		{Op: wire.OpStat, Path: "/a"},
		{Op: wire.OpStat, Path: "/missing"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != "" {
		t.Fatalf("create: %s", results[0].Err)
	}
	if results[1].Err != "" || results[1].Record == nil || results[1].Record.Size != 1 {
		t.Fatalf("stat = %+v", results[1])
	}
	if results[2].Err == "" {
		t.Fatal("stat of missing path succeeded in batch")
	}
}

// Two clients on one registry count into the same sdk_* series — the sum of
// both, not whichever registered last — and building a client leaves
// nothing behind in the registry's counter table.
func TestClientsOnOneRegistrySum(t *testing.T) {
	f := startFleet(t, 1)
	reg := obs.New()
	opts := Options{
		Authority: f.authority(), Timeout: 5 * time.Second, Budget: 5 * time.Second,
		BatchDelay: time.Millisecond, HealthInterval: -1, Obs: reg,
	}
	var clients [2]*Client
	for i := range clients {
		c, err := NewClient(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	if err := clients[0].CreateFileSet("vol00"); err != nil {
		t.Fatal(err)
	}
	// Sequential writes: each is sent at once, as a batch of one.
	for i, c := range []*Client{clients[0], clients[1], clients[1]} {
		if err := c.Create("vol00", fmt.Sprintf("/f%d", i), sharedisk.Record{Size: 1}); err != nil {
			t.Fatal(err)
		}
	}
	before := reg.Counters()
	if sent, ops := before[CtrBatchesSent], before[CtrBatchedOps]; sent != 3 || ops != 3 {
		t.Fatalf("%s = %d, %s = %d; want 3 and 3, the sum over both clients", CtrBatchesSent, sent, CtrBatchedOps, ops)
	}
	for i := 0; i < 100; i++ {
		c, err := NewClient(opts)
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	if after := reg.Counters(); len(after) != len(before) {
		t.Fatalf("100 clients built and closed grew the counter table from %d to %d names", len(before), len(after))
	}
}
