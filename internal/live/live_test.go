package live

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"anufs/internal/core"
	"anufs/internal/namespace"
	"anufs/internal/obs"
	"anufs/internal/sharedisk"
)

// testConfig returns a config with the periodic tuner effectively disabled
// (long window) so tests drive TuneOnce deterministically, and zero op cost
// so they run fast.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Window = time.Hour
	cfg.OpCost = 0
	cfg.RetryBudget = 2 * time.Second
	return cfg
}

func newTestCluster(t *testing.T, nFileSets int) (*Cluster, *sharedisk.Store) {
	t.Helper()
	disk := sharedisk.NewStore(0)
	for i := 0; i < nFileSets; i++ {
		if err := disk.CreateFileSet(fmt.Sprintf("fs%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	c, err := NewCluster(testConfig(), disk, map[int]float64{0: 1, 1: 3, 2: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c, disk
}

func TestBasicOps(t *testing.T) {
	c, _ := newTestCluster(t, 4)
	if err := c.Create("fs00", "/a", sharedisk.Record{Size: 5}); err != nil {
		t.Fatal(err)
	}
	rec, err := c.Stat("fs00", "/a")
	if err != nil || rec.Size != 5 {
		t.Fatalf("Stat = %+v, %v", rec, err)
	}
	if err := c.Update("fs00", "/a", sharedisk.Record{Size: 6}); err != nil {
		t.Fatal(err)
	}
	ls, err := c.List("fs00", "/")
	if err != nil || len(ls) != 1 {
		t.Fatalf("List = %v, %v", ls, err)
	}
	if err := c.Remove("fs00", "/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("fs00", "/a"); err == nil {
		t.Fatal("Stat after Remove succeeded")
	}
}

func TestOwnershipMatchesMapper(t *testing.T) {
	c, disk := newTestCluster(t, 8)
	for _, fs := range disk.FileSets() {
		owner := c.Owner(fs)
		found := false
		for _, st := range c.Stats() {
			for _, o := range st.Owned {
				if o == fs {
					if st.ID != owner {
						t.Fatalf("%s owned by server %d but mapped to %d", fs, st.ID, owner)
					}
					found = true
				}
			}
		}
		if !found {
			t.Fatalf("%s not owned by any server", fs)
		}
	}
}

func TestCreateFileSetRoutedToOwner(t *testing.T) {
	c, _ := newTestCluster(t, 0)
	if err := c.CreateFileSet("brand-new"); err != nil {
		t.Fatal(err)
	}
	if err := c.Create("brand-new", "/x", sharedisk.Record{}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateFileSet("brand-new"); err == nil {
		t.Fatal("duplicate CreateFileSet succeeded")
	}
}

func TestTuningShiftsLoadOffSlowServer(t *testing.T) {
	disk := sharedisk.NewStore(0)
	for i := 0; i < 24; i++ {
		if err := disk.CreateFileSet(fmt.Sprintf("fs%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	cfg := testConfig()
	cfg.OpCost = 2 * time.Millisecond
	coreCfg := core.Defaults()
	coreCfg.Threshold = 0.3
	cfg.Core = coreCfg
	// Server 0 is 20x slower.
	c, err := NewCluster(cfg, disk, map[int]float64{0: 1, 1: 10, 2: 10, 3: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	load := func() {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for j := 0; j < 120; j++ {
					fs := fmt.Sprintf("fs%02d", (g*7+j)%24)
					_ = c.Create(fs, fmt.Sprintf("/g%d/f%d", g, j), sharedisk.Record{})
				}
			}(i)
		}
		wg.Wait()
	}
	before, _ := c.snapshot.Load().(*core.Mapper).ShareFrac(0)
	for round := 0; round < 6; round++ {
		load()
		c.TuneOnce()
	}
	after, _ := c.snapshot.Load().(*core.Mapper).ShareFrac(0)
	if after >= before {
		t.Fatalf("slow server share did not shrink: %.4f -> %.4f", before, after)
	}
	if c.Moves() == 0 {
		t.Fatal("tuning moved no file sets")
	}
	// No metadata was lost across the moves.
	for i := 0; i < 24; i++ {
		fs := fmt.Sprintf("fs%02d", i)
		if _, err := c.List(fs, "/"); err != nil {
			t.Fatalf("List(%s) after tuning: %v", fs, err)
		}
	}
}

func TestKillPreservesFlushedState(t *testing.T) {
	c, _ := newTestCluster(t, 6)
	// Write a record into every file set, then checkpoint via move: first
	// find a file set owned by server 1 and flush it by killing 1 AFTER the
	// cluster has released... Simpler: write, then gracefully tune (no-op),
	// then kill and verify flushed-at-acquire state survives where it was
	// flushed. Since live servers flush only on Release, records on the
	// victim are lost — exactly the crash semantics — while other servers'
	// records survive.
	for i := 0; i < 6; i++ {
		fs := fmt.Sprintf("fs%02d", i)
		if err := c.Create(fs, "/survivor", sharedisk.Record{Size: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	victim := 2
	victimSets := map[string]bool{}
	for _, st := range c.Stats() {
		if st.ID == victim {
			for _, fs := range st.Owned {
				victimSets[fs] = true
			}
		}
	}
	if err := c.Kill(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(victim); err == nil {
		t.Fatal("double kill succeeded")
	}
	for i := 0; i < 6; i++ {
		fs := fmt.Sprintf("fs%02d", i)
		_, err := c.Stat(fs, "/survivor")
		if victimSets[fs] {
			if err == nil {
				t.Fatalf("unflushed record on crashed server survived (%s)", fs)
			}
		} else if err != nil {
			t.Fatalf("record on surviving server lost (%s): %v", fs, err)
		}
	}
	// Every file set is still served by someone.
	for i := 0; i < 6; i++ {
		fs := fmt.Sprintf("fs%02d", i)
		if _, err := c.List(fs, "/"); err != nil {
			t.Fatalf("List(%s) after kill: %v", fs, err)
		}
	}
	if len(c.Servers()) != 2 {
		t.Fatalf("Servers = %v after kill", c.Servers())
	}
}

func TestMovePreservesFlushedRecords(t *testing.T) {
	// Records written before a *graceful* move survive it: Release flushes.
	c, _ := newTestCluster(t, 8)
	for i := 0; i < 8; i++ {
		fs := fmt.Sprintf("fs%02d", i)
		if err := c.Create(fs, "/keep", sharedisk.Record{Size: 9}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AddServer(9, 5); err != nil {
		t.Fatal(err)
	}
	if err := c.AddServer(9, 5); err == nil {
		t.Fatal("duplicate AddServer succeeded")
	}
	for i := 0; i < 8; i++ {
		fs := fmt.Sprintf("fs%02d", i)
		rec, err := c.Stat(fs, "/keep")
		if err != nil || rec.Size != 9 {
			t.Fatalf("record lost across graceful move (%s): %+v, %v", fs, rec, err)
		}
	}
	if len(c.Servers()) != 4 {
		t.Fatalf("Servers = %v after add", c.Servers())
	}
}

func TestKillLastServerFails(t *testing.T) {
	disk := sharedisk.NewStore(0)
	c, err := NewCluster(testConfig(), disk, map[int]float64{0: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if err := c.Kill(0); err == nil {
		t.Fatal("killed the last server")
	}
	if err := c.Kill(42); err == nil {
		t.Fatal("killed unknown server")
	}
}

func TestStoppedClusterRejectsOps(t *testing.T) {
	c, _ := newTestCluster(t, 2)
	c.Stop()
	c.Stop() // idempotent
	if err := c.Create("fs00", "/x", sharedisk.Record{}); !errors.Is(err, ErrStopped) {
		t.Fatalf("Create after Stop: %v", err)
	}
	if err := c.AddServer(7, 1); !errors.Is(err, ErrStopped) {
		t.Fatalf("AddServer after Stop: %v", err)
	}
	if err := c.Kill(0); !errors.Is(err, ErrStopped) {
		t.Fatalf("Kill after Stop: %v", err)
	}
}

func TestConcurrentOpsDuringTuningAndMembership(t *testing.T) {
	c, _ := newTestCluster(t, 12)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			j := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				fs := fmt.Sprintf("fs%02d", (g+j)%12)
				_ = c.Create(fs, fmt.Sprintf("/c%d-%d", g, j), sharedisk.Record{})
				_, _ = c.Stat(fs, fmt.Sprintf("/c%d-%d", g, j))
				j++
			}
		}(g)
	}
	for i := 0; i < 5; i++ {
		c.TuneOnce()
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.AddServer(8, 4); err != nil {
		t.Fatal(err)
	}
	c.TuneOnce()
	if err := c.Kill(1); err != nil {
		t.Fatal(err)
	}
	c.TuneOnce()
	close(stop)
	wg.Wait()
	// All file sets remain reachable.
	for i := 0; i < 12; i++ {
		if _, err := c.List(fmt.Sprintf("fs%02d", i), "/"); err != nil {
			t.Fatalf("fs%02d unreachable: %v", i, err)
		}
	}
}

// TestOverlappingReconfigurationsKeepOwnership: a Kill issued while an
// AddServer is still moving file sets runs after it, not beside it. Every
// original server's queue is held, so AddServer(9)'s first release waits
// there with the rest of its moves behind it. Run beside it, Kill(9) handed
// the file sets 9 had just been given straight back to their old owners,
// which still held them; AddServer's releases then dropped them, and each
// was mapped to a server that refused every request for it until it moved
// again — wire.TestSystemEndToEnd's "call timed out after 5s". Afterwards
// every file set is owned by the server the mapping names.
func TestOverlappingReconfigurationsKeepOwnership(t *testing.T) {
	c, disk := newTestCluster(t, 48)
	hold := make(chan struct{})
	c.mu.Lock()
	var orig []*server
	for _, s := range c.servers {
		orig = append(orig, s)
	}
	c.mu.Unlock()
	held := make(chan struct{})
	for _, s := range orig {
		if err := s.q.push(task{fn: func(*server) error { held <- struct{}{}; <-hold; return nil }, enq: time.Now(), reply: make(chan taskResult, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	for range orig {
		<-held
	}
	added, killed := make(chan error, 1), make(chan error, 1)
	go func() { added <- c.AddServer(9, 1) }()
	queued := func() (n int) {
		for _, s := range orig {
			n += s.q.depthOf(namespace.VolumeOf("fs00"))
		}
		return n
	}
	for queued() == 0 { // AddServer's first release is behind a held task
		time.Sleep(time.Millisecond)
	}
	go func() { killed <- c.Kill(9) }()
	select { // unserialized, Kill would be done by now
	case err := <-killed:
		killed <- err
	case <-time.After(50 * time.Millisecond):
	}
	close(hold)
	if err := <-added; err != nil {
		t.Fatal(err)
	}
	if err := <-killed; err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, fs := range disk.FileSets() {
		if owner := c.Owner(fs); !c.servers[owner].ms.Owns(fs) {
			t.Errorf("%s is mapped to server %d, which does not own it", fs, owner)
		}
	}
}

func TestNewClusterValidation(t *testing.T) {
	disk := sharedisk.NewStore(0)
	if _, err := NewCluster(Config{}, disk, map[int]float64{0: 1}); err == nil {
		t.Fatal("zero-value config accepted")
	}
	if _, err := NewCluster(testConfig(), disk, map[int]float64{0: -1}); err == nil {
		t.Fatal("negative speed accepted")
	}
	if _, err := NewCluster(testConfig(), disk, nil); err == nil {
		t.Fatal("no servers accepted")
	}
}

func TestStatsShape(t *testing.T) {
	c, _ := newTestCluster(t, 4)
	if err := c.Create("fs00", "/s", sharedisk.Record{}); err != nil {
		t.Fatal(err)
	}
	stats := c.Stats()
	if len(stats) != 3 {
		t.Fatalf("Stats len = %d", len(stats))
	}
	var totalShare float64
	var served int64
	for i, st := range stats {
		if i > 0 && stats[i-1].ID >= st.ID {
			t.Fatal("Stats not sorted by ID")
		}
		totalShare += st.ShareFrac
		served += st.Served
	}
	if totalShare < 0.49 || totalShare > 0.51 {
		t.Fatalf("total share %.3f, want 0.5 (half occupancy)", totalShare)
	}
	if served == 0 {
		t.Fatal("no server recorded served requests")
	}
}

func TestPeriodicTunerRuns(t *testing.T) {
	disk := sharedisk.NewStore(0)
	for i := 0; i < 6; i++ {
		if err := disk.CreateFileSet(fmt.Sprintf("p%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	cfg := testConfig()
	cfg.Window = 20 * time.Millisecond
	cfg.OpCost = 4 * time.Millisecond
	c, err := NewCluster(cfg, disk, map[int]float64{0: 1, 1: 40})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			j := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = c.Create(fmt.Sprintf("p%d", (g+j)%6), fmt.Sprintf("/t%d-%d", g, j), sharedisk.Record{})
				j++
			}
		}(g)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Moves() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if c.Moves() == 0 {
		t.Fatal("periodic tuner never moved a file set despite 40x speed skew")
	}
}

func TestDelegateFailoverKeepsTuning(t *testing.T) {
	// Kill the lowest-ID server — the implicit delegate. Divergent-tuning
	// state resets (stateless failover, §4) and tuning must keep working.
	disk := sharedisk.NewStore(0)
	for i := 0; i < 12; i++ {
		if err := disk.CreateFileSet(fmt.Sprintf("d%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	cfg := testConfig()
	cfg.OpCost = 2 * time.Millisecond
	c, err := NewCluster(cfg, disk, map[int]float64{0: 1, 1: 1, 2: 20, 3: 20})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	load := func() {
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for j := 0; j < 80; j++ {
					_ = c.Create(fmt.Sprintf("d%02d", (g+j)%12), fmt.Sprintf("/f%d-%d", g, j), sharedisk.Record{})
				}
			}(g)
		}
		wg.Wait()
	}
	// Kill the delegate BEFORE any tuning: the survivors start with equal
	// shares, so the slow server 1 is guaranteed overloaded and the
	// failover delegate must shed it.
	if err := c.Kill(0); err != nil { // the delegate dies
		t.Fatal(err)
	}
	movesAfterKill := c.Moves()
	for round := 0; round < 8 && c.Moves() <= movesAfterKill; round++ {
		load()
		c.TuneOnce()
	}
	if c.Moves() <= movesAfterKill {
		t.Fatal("tuning stopped after delegate failover")
	}
	for i := 0; i < 12; i++ {
		if _, err := c.List(fmt.Sprintf("d%02d", i), "/"); err != nil {
			t.Fatalf("d%02d unreachable after failover: %v", i, err)
		}
	}
}

func TestLatencySeriesCollected(t *testing.T) {
	c, _ := newTestCluster(t, 4)
	for i := 0; i < 40; i++ {
		if err := c.Create("fs00", fmt.Sprintf("/ls%d", i), sharedisk.Record{}); err != nil {
			t.Fatal(err)
		}
	}
	// The per-server latency histograms are the live latency series.
	var total int64
	c.Obs().Hist.Each(func(name, _ string, h *obs.Histogram) {
		if name == "live_latency_seconds" {
			total += h.Count()
		}
	})
	if total < 40 {
		t.Fatalf("histograms recorded %d completions, want >= 40", total)
	}
}
