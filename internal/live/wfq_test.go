package live

import (
	"fmt"
	"testing"
	"time"
)

func mkTask(fileSet string) task {
	return task{enq: time.Now(), reply: make(chan taskResult, 1), fileSet: fileSet}
}

// TestTaskQueueWeightedShare: with backlogs on two volumes, pops divide
// by weight — volume A at weight 3 gets ~3x volume B's service.
func TestTaskQueueWeightedShare(t *testing.T) {
	q := newTaskQueue(64)
	q.setWeights(map[string]float64{"a": 3, "b": 1})
	for i := 0; i < 60; i++ {
		if err := q.push(mkTask("a/fs")); err != nil {
			t.Fatal(err)
		}
		if err := q.push(mkTask("b/fs")); err != nil {
			t.Fatal(err)
		}
	}
	counts := map[string]int{}
	for i := 0; i < 40; i++ {
		tk, ok := q.pop()
		if !ok {
			t.Fatal("pop returned closed")
		}
		vol := tk.fileSet[:1]
		counts[vol]++
	}
	// Stride scheduling at 3:1 over 40 pops: 30 a's, 10 b's (±1 for the
	// arbitrary tie-break at start).
	if counts["a"] < 28 || counts["a"] > 32 {
		t.Fatalf("weight-3 volume got %d of 40 pops, want ~30 (counts %v)", counts["a"], counts)
	}
}

// TestTaskQueueFIFOWithinVolume: a volume's own tasks are served in
// arrival order regardless of interleaved tenants.
func TestTaskQueueFIFOWithinVolume(t *testing.T) {
	q := newTaskQueue(64)
	for i := 0; i < 10; i++ {
		tk := mkTask("a/fs")
		tk.op = fmt.Sprintf("%d", i)
		if err := q.push(tk); err != nil {
			t.Fatal(err)
		}
		if err := q.push(mkTask("b/fs")); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	for next < 10 { // stop at the last one: a pop of the drained queue would block
		tk, ok := q.pop()
		if !ok {
			break
		}
		if tk.fileSet != "a/fs" {
			continue
		}
		if tk.op != fmt.Sprintf("%d", next) {
			t.Fatalf("volume a served %q, want %d", tk.op, next)
		}
		next++
	}
	if next != 10 {
		t.Fatalf("served %d of volume a's 10 tasks", next)
	}
}

// TestTaskQueuePerVolumeBackpressure: a full tenant queue blocks only
// that tenant's pushers; other tenants submit unimpeded, and close wakes
// the blocked pusher with ErrStopped.
func TestTaskQueuePerVolumeBackpressure(t *testing.T) {
	q := newTaskQueue(4)
	for i := 0; i < 4; i++ {
		if err := q.push(mkTask("hot/fs")); err != nil {
			t.Fatal(err)
		}
	}
	blocked := make(chan error, 1)
	go func() { blocked <- q.push(mkTask("hot/fs")) }()
	select {
	case err := <-blocked:
		t.Fatalf("push into a full tenant queue returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	coldDone := make(chan error, 1)
	go func() { coldDone <- q.push(mkTask("cold/fs")) }()
	select {
	case err := <-coldDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("cold tenant's push blocked behind the hot tenant's full queue")
	}
	q.close()
	if err := <-blocked; err != ErrStopped {
		t.Fatalf("blocked pusher got %v after close, want ErrStopped", err)
	}
}

// TestTaskQueueDrainOnClose: close rejects new pushes but already-queued
// tasks still pop.
func TestTaskQueueDrainOnClose(t *testing.T) {
	q := newTaskQueue(8)
	for i := 0; i < 3; i++ {
		if err := q.push(mkTask("a/fs")); err != nil {
			t.Fatal(err)
		}
	}
	q.close()
	if err := q.push(mkTask("a/fs")); err != ErrStopped {
		t.Fatalf("push after close: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, ok := q.pop(); !ok {
			t.Fatalf("pop %d returned closed with tasks still queued", i)
		}
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop returned a task from a drained closed queue")
	}
}

// slotsUntilCold runs the acceptance scenario against the queue itself,
// with service slots for time: the hot tenant keeps its backlog pinned at
// the bound while the cold tenant submits one task at a time, n times over.
// It returns, per cold task, how many service slots passed from its
// submission to its completion (1 = served next, the solo figure).
func slotsUntilCold(t *testing.T, q *taskQueue, hotBacklog, n int) []int {
	t.Helper()
	push := func(fileSet string) {
		t.Helper()
		if err := q.push(mkTask(fileSet)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < hotBacklog; i++ {
		push("hot/a")
	}
	slots := make([]int, n)
	for i := range slots {
		push("cold/a")
		for served := ""; served != "cold/a"; slots[i]++ {
			tk, ok := q.pop()
			if !ok {
				t.Fatal("pop returned closed")
			}
			if served = tk.fileSet; served == "hot/a" {
				push("hot/a") // the saturating tenant refills at once
			}
		}
	}
	return slots
}

// TestTwoTenantIsolationWFQ is the acceptance scenario, counted rather
// than timed: tenant A saturates its owner queue while tenant B runs a
// light sequential load. Under the stride scheduler every B task is served
// within 3 slots of its submission — 3x its solo figure of 1 — however
// deep A's backlog; one shared FIFO would make it wait out A's whole
// backlog. The latency form of the claim is the benchmark's mixed-tenants
// workload.
func TestTwoTenantIsolationWFQ(t *testing.T) {
	const depth, rounds = 8, 60
	fair := slotsUntilCold(t, newTaskQueue(depth), depth, rounds)
	for i, n := range fair {
		if n > 3 {
			t.Fatalf("WFQ failed to isolate: cold task %d waited %d slots behind a saturating tenant (all: %v)", i, n, fair)
		}
	}
}
