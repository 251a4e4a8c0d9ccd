package main

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"anufs/internal/fleet"
	"anufs/internal/sharedisk"
	"anufs/internal/wire"
)

// TestFleetRebalanceUnderLoad is the fleet's end-to-end contract: run
// three real anufsd processes sharding nine file sets, keep a routed write
// workload going while file sets are live-handed-off (manual assigns plus
// a full rebalance), and require that
//
//   - every write acknowledged to a client is still readable afterwards
//     (zero acked-write loss),
//   - after the dust settles every file set is served by exactly the
//     daemon the map names — a fenced donor never answers for a file set
//     it gave away (zero misrouted writes), and
//   - all three daemons converge to the authority's final epoch on their
//     own (eager push with the poll loop as backstop).
func TestFleetRebalanceUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	addrs := []string{freeAddr(t), freeAddr(t), freeAddr(t)}
	roster := fmt.Sprintf("0=%s@1,1=%s@2,2=%s@4", addrs[0], addrs[1], addrs[2])

	common := "-filesets 9 -speeds 1 -window 1h -opcost 0 -checkpoint-interval 0"
	daemons := []*struct{ args string }{
		{fmt.Sprintf("-listen %s -fleet 0 -fleet-authority %s %s", addrs[0], roster, common)},
		{fmt.Sprintf("-listen %s -fleet 1 -fleet-join %s %s", addrs[1], addrs[0], common)},
		{fmt.Sprintf("-listen %s -fleet 2 -fleet-join %s %s", addrs[2], addrs[0], common)},
	}
	for _, d := range daemons {
		startDaemonArgs(t, d.args)
	}
	for _, a := range addrs {
		waitListening(t, a)
	}

	router, err := fleet.NewRouter(fleet.RouterConfig{
		AuthorityAddr: addrs[0],
		Budget:        20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	var names []string
	for i := 0; i < 9; i++ {
		names = append(names, fmt.Sprintf("vol%02d", i))
	}

	// Writers: each goroutine walks the file sets round-robin, creating
	// records through the router and recording every acknowledged path.
	type acked struct {
		fs, path string
	}
	var (
		mu    sync.Mutex
		got   []acked
		wg    sync.WaitGroup
		stop  = make(chan struct{})
		fails = make(chan error, 64)
	)
	const writers = 4
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each writer gets its own router: separate map caches mean
			// some writers are always stale when a handoff lands.
			wr, err := fleet.NewRouter(fleet.RouterConfig{
				AuthorityAddr: addrs[0],
				Budget:        20 * time.Second,
			})
			if err != nil {
				select {
				case fails <- err:
				default:
				}
				return
			}
			defer wr.Close()
			for seq := 0; ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				fs := names[(w+seq)%len(names)]
				path := fmt.Sprintf("/w%d-%d", w, seq)
				if err := wr.Create(fs, path, sharedisk.Record{Size: int64(seq)}); err != nil {
					select {
					case fails <- fmt.Errorf("writer %d: create %s%s: %w", w, fs, path, err):
					default:
					}
					return
				}
				mu.Lock()
				got = append(got, acked{fs, path})
				mu.Unlock()
			}
		}(w)
	}

	// Churn the map while the writers run: move every file set by hand,
	// then clear the pins with a full speed-proportional rebalance.
	ac := dialRetry(t, addrs[0])
	defer ac.Close()
	ac.SetTimeout(30 * time.Second)
	for i, fs := range names {
		if _, err := ac.Assign(fs, (i+1)%3); err != nil {
			t.Fatalf("assign %s: %v", fs, err)
		}
		time.Sleep(50 * time.Millisecond) // keep writes flowing between moves
	}
	if _, err := ac.Rebalance(); err != nil {
		t.Fatalf("rebalance: %v", err)
	}

	close(stop)
	wg.Wait()
	select {
	case err := <-fails:
		t.Fatal(err)
	default:
	}
	mu.Lock()
	writes := append([]acked(nil), got...)
	mu.Unlock()
	if len(writes) < 50 {
		t.Fatalf("only %d writes landed during the churn; the workload never overlapped the handoffs", len(writes))
	}

	// Epoch convergence: every daemon reaches the authority's final epoch
	// without being asked.
	finalEpoch, err := ac.MapEpoch()
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*wire.Client, len(addrs))
	for i, a := range addrs {
		clients[i] = dialRetry(t, a)
		defer clients[i].Close()
	}
	deadline := time.Now().Add(10 * time.Second)
	for i, c := range clients {
		for {
			epoch, err := c.MapEpoch()
			if err == nil && epoch == finalEpoch {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("daemon %d stuck at epoch %d (err %v), authority at %d", i, epoch, err, finalEpoch)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	// Zero acked-write loss: every acknowledged write is readable through
	// the router.
	if _, err := router.Refresh(); err != nil {
		t.Fatal(err)
	}
	for _, w := range writes {
		if _, err := router.Stat(w.fs, w.path); err != nil {
			t.Fatalf("acked write %s%s lost after rebalance: %v", w.fs, w.path, err)
		}
	}

	// Zero misrouting after the fences: each file set answers on exactly
	// the daemon the final map names; every other daemon rejects it with
	// wrong-owner (it fenced its copy) rather than serving stale state.
	cm := router.Map()
	probe := map[string]string{}
	for _, w := range writes {
		probe[w.fs] = w.path // any acked path per file set will do
	}
	for _, fs := range names {
		path, ok := probe[fs]
		if !ok {
			continue
		}
		owner := cm.Assign[fs]
		for i, c := range clients {
			_, err := c.Stat(fs, path)
			if i == owner {
				if err != nil {
					t.Fatalf("owner daemon %d cannot read %s%s: %v", i, fs, path, err)
				}
				continue
			}
			if _, isWrong := wire.IsWrongOwner(err); !isWrong {
				t.Fatalf("daemon %d (not the owner of %s) answered %v instead of wrong-owner", i, fs, err)
			}
		}
	}
	t.Logf("fleet churn survived: %d acked writes, final epoch %d, %s",
		len(writes), finalEpoch, strings.Join(names, " "))
}

// TestFleetAuthorityRestartResumesJournaledMap: an authority restarted with
// its usual flags on the journal directory that holds the map it persisted
// resumes THAT map — assignments kept, and the first epoch it publishes
// strictly above the last one it journaled ("epochs never reused"). A
// member still holding the old map is refreshed to the new epoch rather
// than refusing, forever, a fresh roster map at an epoch it has already
// seen.
func TestFleetAuthorityRestartResumesJournaledMap(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	addrs := []string{freeAddr(t), freeAddr(t)}
	roster := fmt.Sprintf("0=%s@1,1=%s@1", addrs[0], addrs[1])
	common := "-filesets 4 -speeds 1 -window 1h -opcost 0 -checkpoint-interval 0"
	authArgs := fmt.Sprintf("-listen %s -fleet 0 -fleet-authority %s -journal-dir %s %s", addrs[0], roster, t.TempDir(), common)
	auth := startDaemonArgs(t, authArgs)
	startDaemonArgs(t, fmt.Sprintf("-listen %s -fleet 1 -fleet-join %s %s", addrs[1], addrs[0], common))
	for _, a := range addrs {
		waitListening(t, a)
	}
	ac, mc := dialRetry(t, addrs[0]), dialRetry(t, addrs[1])
	defer mc.Close()

	// A few reconfigurations, each a live handoff and a journaled map.
	var last uint64
	for _, to := range []int{1, 0, 1} {
		epoch, err := ac.Assign("vol00", to)
		if err != nil {
			t.Fatalf("assign vol00 -> %d: %v", to, err)
		}
		last = epoch
	}
	waitEpoch := func(c *wire.Client, who string, want uint64) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for {
			got, err := c.MapEpoch()
			if err == nil && got == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never reached map epoch %d (at %d, %v)", who, want, got, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	waitEpoch(mc, "member", last)
	ac.Close()

	_ = auth.Process.Kill() // SIGKILL: the journal is all that is left of the map
	_ = auth.Wait()
	startDaemonArgs(t, authArgs)
	ac2 := dialRetry(t, addrs[0])
	defer ac2.Close()
	cm := fetchClusterMap(t, ac2)
	if cm.Epoch <= last {
		t.Fatalf("restarted authority publishes epoch %d, not above the journaled %d: epochs reused", cm.Epoch, last)
	}
	if cm.Authority != 0 || cm.Assign["vol00"] != 1 {
		t.Fatalf("restarted authority's map %+v lost the journaled assignment of vol00 to daemon 1", cm)
	}
	waitEpoch(mc, "member holding the old map", cm.Epoch)
	if err := mc.Create("vol00", "/after-restart", sharedisk.Record{Size: 1}); err != nil {
		t.Fatalf("write to the member's file set after the authority restart: %v", err)
	}
	if epoch, err := ac2.Assign("vol01", 1-cm.Assign["vol01"]); err != nil || epoch <= cm.Epoch {
		t.Fatalf("reconfiguration after the restart = epoch %d, %v; want above %d", epoch, err, cm.Epoch)
	}
}
