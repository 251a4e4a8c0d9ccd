package live

import (
	"fmt"
	"testing"
	"time"

	"anufs/internal/journal"
	"anufs/internal/sharedisk"
)

// durableConfig returns a fast test config (no tuner surprises needed).
func durableConfig() Config {
	cfg := DefaultConfig()
	cfg.Window = 50 * time.Millisecond
	cfg.OpCost = 0
	cfg.RetryBudget = 2 * time.Second
	return cfg
}

// TestClusterJournalRecovery runs a cluster over a Durable store,
// checkpoints, tears everything down as a crash would (no release flushes
// beyond the checkpoint), and verifies a second cluster over the recovered
// store serves the same metadata.
func TestClusterJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	jnl, st, _, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	disk := sharedisk.NewDurable(st, jnl, 0)
	c, err := NewCluster(durableConfig(), disk, map[int]float64{0: 1, 1: 2})
	if err != nil {
		t.Fatal(err)
	}
	const nfs = 4
	for i := 0; i < nfs; i++ {
		if err := c.CreateFileSet(fmt.Sprintf("vol%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nfs; i++ {
		fs := fmt.Sprintf("vol%d", i)
		for k := 0; k < 5; k++ {
			path := fmt.Sprintf("/f%d", k)
			if err := c.Create(fs, path, sharedisk.Record{Size: int64(10*i + k), Owner: "t"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The durability barrier: everything above must survive from here on.
	if err := c.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	// Writes after the checkpoint are allowed to be lost on a crash.
	if err := c.Create("vol0", "/after-sync", sharedisk.Record{Size: 1}); err != nil {
		t.Fatal(err)
	}
	c.Stop()
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": recover from the journal alone and serve again.
	recovered, info, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.FileSets != nfs {
		t.Fatalf("recovered %d file sets, want %d", info.FileSets, nfs)
	}
	c2, err := NewCluster(durableConfig(), recovered, map[int]float64{0: 1, 1: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Stop()
	for i := 0; i < nfs; i++ {
		fs := fmt.Sprintf("vol%d", i)
		for k := 0; k < 5; k++ {
			rec, err := c2.Stat(fs, fmt.Sprintf("/f%d", k))
			if err != nil {
				t.Fatalf("stat %s /f%d after recovery: %v", fs, k, err)
			}
			if rec.Size != int64(10*i+k) {
				t.Fatalf("%s /f%d recovered size %d, want %d", fs, k, rec.Size, 10*i+k)
			}
		}
	}
}

// TestCheckpointAllFlushesDirtyState: after CheckpointAll, the shared disk
// images (not just server caches) hold every record.
func TestCheckpointAllFlushesDirtyState(t *testing.T) {
	disk := sharedisk.NewStore(0)
	if err := disk.CreateFileSet("vol"); err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(durableConfig(), disk, map[int]float64{0: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if err := c.Create("vol", "/a", sharedisk.Record{Size: 42}); err != nil {
		t.Fatal(err)
	}
	im, err := disk.Load("vol")
	if err != nil {
		t.Fatal(err)
	}
	if _, onDisk := im.Records["/a"]; onDisk {
		t.Fatal("record hit shared disk before any checkpoint — cache write-through?")
	}
	if err := c.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	im, err = disk.Load("vol")
	if err != nil {
		t.Fatal(err)
	}
	if rec, onDisk := im.Records["/a"]; !onDisk || rec.Size != 42 {
		t.Fatalf("checkpoint did not flush: %+v", im.Records)
	}
	// Idempotent: a second checkpoint with nothing dirty is a no-op.
	v1, _ := disk.Version("vol")
	if err := c.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	v2, _ := disk.Version("vol")
	if v1 != v2 {
		t.Fatalf("clean checkpoint bumped version %d -> %d", v1, v2)
	}
}

// TestCheckpointAllSkipsSystemImages: once a volume exists, a journaled
// authority's disk also holds system images (the volume registry, the
// fleet map) that no server owns. The sync barrier must pass them over —
// it used to wait out the retry budget for an owner and then fail.
func TestCheckpointAllSkipsSystemImages(t *testing.T) {
	jnl, st, _, err := journal.Open(t.TempDir(), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	disk := sharedisk.NewDurable(st, jnl, 0)
	c, err := NewCluster(durableConfig(), disk, map[int]float64{0: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if err := c.CreateFileSet("acme/logs"); err != nil {
		t.Fatal(err)
	}
	// What the fleet authority does when a volume is created or the map
	// changes: install the image straight onto the disk.
	for _, system := range []string{"__volumes/registry", "__fleet/map"} {
		if err := disk.Install(system, sharedisk.Image{Version: 2, Records: map[string]sharedisk.Record{"/blob": {Size: 1}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Create("acme/logs", "/a", sharedisk.Record{Size: 42}); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckpointAll(); err != nil {
		t.Fatalf("sync with system images on the disk: %v", err)
	}
	if err := c.WithTrace(7).CheckpointAll(); err != nil {
		t.Fatalf("traced sync with system images on the disk: %v", err)
	}
	if im, _ := disk.Load("acme/logs"); im.Records["/a"].Size != 42 {
		t.Fatalf("sync skipped a real file set: %+v", im)
	}
}
