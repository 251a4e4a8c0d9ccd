package main

import (
	"fmt"
	"net"
	"os/exec"
	"testing"
	"time"

	"anufs/internal/fleet"
	"anufs/internal/placement"
	"anufs/internal/sdk"
	"anufs/internal/sharedisk"
	"anufs/internal/wire"
)

func fetchClusterMap(t *testing.T, c *wire.Client) *placement.ClusterMap {
	t.Helper()
	encoded, err := c.ClusterMap()
	if err != nil {
		t.Fatal(err)
	}
	cm, err := placement.DecodeClusterMap(encoded)
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

// TestFleetDaemonDeathJournalFailover is the tentpole's process-level
// contract for a dying member: run a three-daemon journaled fleet behind a
// real gateway, push synced writes, SIGKILL a non-authority daemon, and
// require that (a) the authority's heartbeat detector reassigns its file
// sets to survivors, (b) the survivors replay the victim's journal from
// shared disk so ZERO acked writes are lost, and (c) a fourth daemon can
// then join the shrunken fleet live and take load.
func TestFleetDaemonDeathJournalFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	addrs := []string{freeAddr(t), freeAddr(t), freeAddr(t)}
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	lease := "500ms"

	// Daemon 0 hosts the authority with itself as the only roster entry;
	// daemons 1 and 2 join dynamically — the elastic path, not the static
	// roster.
	common := "-filesets 6 -speeds 1,2 -window 1h -opcost 0 -checkpoint-interval 0"
	cmds := make([]*exec.Cmd, 3)
	cmds[0] = startDaemonArgs(t, fmt.Sprintf(
		"-listen %s -fleet 0 -fleet-authority 0=%s@1 -fleet-lease %s -journal-dir %s %s",
		addrs[0], addrs[0], lease, dirs[0], common))
	cmds[1] = startDaemonArgs(t, fmt.Sprintf(
		"-listen %s -fleet 1 -fleet-join %s -fleet-speed 2 -fleet-lease %s -journal-dir %s %s",
		addrs[1], addrs[0], lease, dirs[1], common))
	cmds[2] = startDaemonArgs(t, fmt.Sprintf(
		"-listen %s -fleet 2 -fleet-join %s -fleet-speed 4 -fleet-lease %s -journal-dir %s %s",
		addrs[2], addrs[0], lease, dirs[2], common))
	for _, a := range addrs {
		waitListening(t, a)
	}

	ac := dialRetry(t, addrs[0])
	defer ac.Close()
	ac.SetTimeout(30 * time.Second)

	// Both joiners registered?
	deadline := time.Now().Add(10 * time.Second)
	for {
		cm := fetchClusterMap(t, ac)
		if len(cm.Daemons) == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("joiners never registered: map %+v", cm)
		}
		time.Sleep(50 * time.Millisecond)
	}
	// Spread the load onto the newcomers.
	if _, err := ac.Rebalance(); err != nil {
		t.Fatalf("rebalance onto joined daemons: %v", err)
	}

	// Real gateway in front of the fleet; all traffic goes through it.
	gw, err := sdk.NewGateway(sdk.GatewayConfig{Authority: addrs[0]})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	gwAddr, err := gw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gc := dialRetry(t, gwAddr)
	defer gc.Close()
	gc.SetTimeout(30 * time.Second)

	// Synced write workload: everything in acked was covered by a Sync()
	// that returned (checkpointed into every daemon's journal) before the
	// kill.
	type entry struct {
		fs, path string
		size     int64
	}
	var acked []entry
	for round := 0; round < 4; round++ {
		for i := 0; i < 6; i++ {
			e := entry{fs: fmt.Sprintf("vol%02d", i), path: fmt.Sprintf("/r%d", round), size: int64(10*round + i)}
			if err := gc.Create(e.fs, e.path, sharedisk.Record{Size: e.size, Owner: "elastic"}); err != nil {
				t.Fatalf("create %s%s: %v", e.fs, e.path, err)
			}
		}
		if err := gc.Sync(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			acked = append(acked, entry{fs: fmt.Sprintf("vol%02d", i), path: fmt.Sprintf("/r%d", round), size: int64(10*round + i)})
		}
	}

	// Pick the non-authority daemon owning the most file sets and murder it.
	cm := fetchClusterMap(t, ac)
	victim, most := -1, 0
	for _, d := range cm.Daemons {
		if d.ID == 0 {
			continue
		}
		if n := len(cm.FileSetsOf(d.ID)); victim == -1 || n > most {
			victim, most = d.ID, n
		}
	}
	if victim == -1 || most == 0 {
		t.Fatalf("no non-authority daemon owns file sets after rebalance: %+v", cm.Assign)
	}
	t.Logf("killing daemon %d (owns %d of 6 file sets)", victim, most)
	if err := cmds[victim].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = cmds[victim].Process.Wait()
	killedAt := time.Now()

	// The detector (lease 500ms, startup grace 4x) must reassign every one
	// of the victim's file sets to survivors.
	deadline = time.Now().Add(20 * time.Second)
	for {
		cm = fetchClusterMap(t, ac)
		_, present := cm.Daemon(victim)
		orphans := len(cm.FileSetsOf(victim))
		if !present && orphans == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("failover incomplete: victim present=%v orphans=%d map %+v", present, orphans, cm.Assign)
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Logf("failover completed %s after SIGKILL (map epoch %d)", time.Since(killedAt), cm.Epoch)
	for fs, id := range cm.Assign {
		if id == victim {
			t.Fatalf("%s still assigned to the dead daemon", fs)
		}
	}

	// Zero acked-write loss: every synced record — including those the
	// victim owned — is readable through the gateway, because the new owner
	// replayed the victim's journal before serving.
	for _, e := range acked {
		rec, err := gc.Stat(e.fs, e.path)
		if err != nil {
			t.Fatalf("acked write %s%s lost in failover: %v", e.fs, e.path, err)
		}
		if rec.Size != e.size || rec.Owner != "elastic" {
			t.Fatalf("record %s%s survived wrong: %+v", e.fs, e.path, rec)
		}
	}
	// The fleet serves new writes on the reassigned file sets.
	for i := 0; i < 6; i++ {
		fs := fmt.Sprintf("vol%02d", i)
		if err := gc.Create(fs, "/postfailover", sharedisk.Record{Size: 1}); err != nil {
			t.Fatalf("post-failover create on %s: %v", fs, err)
		}
	}

	// Elasticity both ways: a fourth daemon joins the shrunken fleet live
	// and the next rebalance moves load onto it.
	addr3, dir3 := freeAddr(t), t.TempDir()
	startDaemonArgs(t, fmt.Sprintf(
		"-listen %s -fleet 3 -fleet-join %s -fleet-speed 8 -fleet-lease %s -journal-dir %s %s",
		addr3, addrs[0], lease, dir3, common))
	waitListening(t, addr3)
	deadline = time.Now().Add(10 * time.Second)
	for {
		cm = fetchClusterMap(t, ac)
		if _, ok := cm.Daemon(3); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fourth daemon never joined")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if _, err := ac.Rebalance(); err != nil {
		t.Fatalf("rebalance onto the late joiner: %v", err)
	}
	cm = fetchClusterMap(t, ac)
	if n := len(cm.FileSetsOf(3)); n == 0 {
		t.Fatalf("8x-speed late joiner owns nothing after rebalance: %+v", cm.Assign)
	}
	// And the data still reads back through the gateway after the moves.
	for _, e := range acked {
		if _, err := gc.Stat(e.fs, e.path); err != nil {
			t.Fatalf("acked write %s%s lost in post-join rebalance: %v", e.fs, e.path, err)
		}
	}
}

// TestFleetAuthorityFailoverPromotesStandby is the tentpole's other
// process-level contract: the authority daemon journals every cluster map
// and log-ships to a standby; SIGKILL the authority and the standby must
// promote into a full replacement — serving the dead daemon's file sets
// warm AND resuming the authority role at a strictly higher epoch, so
// join/assign/rebalance keep working without a fleet restart.
func TestFleetAuthorityFailoverPromotesStandby(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	aAddr, bAddr, sAddr := freeAddr(t), freeAddr(t), freeAddr(t)
	aDir, bDir, sDir := t.TempDir(), t.TempDir(), t.TempDir()

	common := "-filesets 4 -speeds 1,2 -window 1h -opcost 0 -checkpoint-interval 0"

	// Standby first so the authority's first semi-sync append can ack.
	startDaemonArgs(t, fmt.Sprintf(
		"-standby -listen %s -journal-dir %s -peer-lease 1s %s",
		sAddr, sDir, common))
	waitListening(t, sAddr)

	authority := startDaemonArgs(t, fmt.Sprintf(
		"-listen %s -fleet 0 -fleet-authority 0=%s@1 -journal-dir %s -replicate-to %s -replicate-sync -sync-timeout 10s %s",
		aAddr, aAddr, aDir, sAddr, common))
	waitListening(t, aAddr)

	// A second daemon joins, configured with the standby's address so its
	// heartbeat loop finds the promoted authority later.
	startDaemonArgs(t, fmt.Sprintf(
		"-listen %s -fleet 1 -fleet-join %s -fleet-standby %s -fleet-speed 2 -journal-dir %s %s",
		bAddr, aAddr, sAddr, bDir, common))
	waitListening(t, bAddr)

	ac := dialRetry(t, aAddr)
	defer ac.Close()
	ac.SetTimeout(30 * time.Second)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if cm := fetchClusterMap(t, ac); len(cm.Daemons) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("joiner never registered with the authority")
		}
		time.Sleep(50 * time.Millisecond)
	}
	// Move one file set to daemon 1 so both daemons own data, then write
	// synced records everywhere.
	if _, err := ac.Assign("vol03", 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		fs := fmt.Sprintf("vol%02d", i)
		if err := ac.Create(fs, "/pre", sharedisk.Record{Size: int64(i), Owner: "authfail"}); err != nil {
			// vol03 lives on daemon 1 now; a direct client gets wrong-owner.
			if _, wrong := wire.IsWrongOwner(err); !wrong {
				t.Fatalf("create %s: %v", fs, err)
			}
			bc := dialRetry(t, bAddr)
			if err := bc.Create(fs, "/pre", sharedisk.Record{Size: int64(i), Owner: "authfail"}); err != nil {
				t.Fatalf("create %s on daemon 1: %v", fs, err)
			}
			bc.Close()
		}
	}
	if err := ac.Sync(); err != nil {
		t.Fatal(err)
	}
	epochBefore, err := ac.MapEpoch()
	if err != nil {
		t.Fatal(err)
	}
	ac.Close()

	// SIGKILL the authority daemon — map journal, file sets, everything.
	if err := authority.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = authority.Process.Wait()
	killedAt := time.Now()

	// The standby promotes (peer-lease 1s), finds the persisted cluster map
	// in its replayed journal, and resumes the authority role at an epoch
	// strictly above everything the dead authority could have published.
	const promotionBound = 20 * time.Second
	var sc *wire.Client
	for {
		cl, err := wire.Dial(sAddr)
		if err == nil {
			cl.SetTimeout(5 * time.Second)
			if _, err := cl.MapEpoch(); err == nil {
				sc = cl
				break
			}
			cl.Close()
		}
		if time.Since(killedAt) > promotionBound {
			t.Fatalf("standby did not promote into an authority within %s", promotionBound)
		}
		time.Sleep(100 * time.Millisecond)
	}
	defer sc.Close()
	t.Logf("standby serving the map %s after authority SIGKILL", time.Since(killedAt))

	epochAfter, err := sc.MapEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if epochAfter <= epochBefore {
		t.Fatalf("promoted epoch %d not above the dead authority's %d", epochAfter, epochBefore)
	}
	if epochAfter <= epochBefore+fleet.PromotionEpochJump/2 {
		t.Fatalf("promoted epoch %d lacks the promotion jump above %d — stale clients could trust a pre-death map",
			epochAfter, epochBefore)
	}

	// The promoted standby advertises itself as the authority daemon and
	// serves the dead daemon's file sets warm (log shipping carried them).
	cm := fetchClusterMap(t, sc)
	auth, ok := cm.AuthorityDaemon()
	if !ok {
		t.Fatalf("promoted map has no authority daemon: %+v", cm)
	}
	if _, port, _ := net.SplitHostPort(sAddr); port != "" {
		if _, gotPort, _ := net.SplitHostPort(auth.Addr); gotPort != port {
			t.Fatalf("promoted map advertises authority at %s, want the standby's %s", auth.Addr, sAddr)
		}
	}
	for i := 0; i < 3; i++ { // vol00..vol02 were the dead authority's
		fs := fmt.Sprintf("vol%02d", i)
		rec, err := sc.Stat(fs, "/pre")
		if err != nil {
			t.Fatalf("acked write %s/pre lost in authority failover: %v", fs, err)
		}
		if rec.Owner != "authfail" {
			t.Fatalf("record %s/pre survived wrong: %+v", fs, rec)
		}
	}

	// The authority role genuinely moved: reconfiguration works against the
	// promoted standby and keeps the epoch monotonic. vol00 is warm on the
	// promoted standby, so this is a real handoff to the surviving member.
	newEpoch, err := sc.Assign("vol00", 1)
	if err != nil {
		t.Fatalf("assign via promoted authority: %v", err)
	}
	if newEpoch <= epochAfter {
		t.Fatalf("post-promotion assign epoch %d not above %d", newEpoch, epochAfter)
	}

	// The surviving member finds the promoted authority (its -fleet-standby
	// rotation) and converges to the new epoch regime.
	bc := dialRetry(t, bAddr)
	defer bc.Close()
	deadline = time.Now().Add(20 * time.Second)
	for {
		epoch, err := bc.MapEpoch()
		if err == nil && epoch >= newEpoch {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("surviving member stuck at epoch %d (err %v), promoted authority at %d", epoch, err, newEpoch)
		}
		time.Sleep(100 * time.Millisecond)
	}
	// And its data is still there — including vol00, which the promotion
	// carried warm out of the shipped journal and the assign handed over.
	if rec, err := bc.Stat("vol03", "/pre"); err != nil || rec.Owner != "authfail" {
		t.Fatalf("surviving member lost vol03: %+v, %v", rec, err)
	}
	if rec, err := bc.Stat("vol00", "/pre"); err != nil || rec.Owner != "authfail" {
		t.Fatalf("vol00 handoff from the promoted authority lost data: %+v, %v", rec, err)
	}
}
