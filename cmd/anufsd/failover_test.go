package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"anufs/internal/sharedisk"
	"anufs/internal/wire"
)

// waitListening waits for something to accept TCP on addr (a standby
// refuses wire ops before promotion, so dialRetry's handshake is no probe).
func waitListening(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			c.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("nothing listening on %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFailoverPromotesStandbyWithoutAckedWriteLoss is the tentpole's
// end-to-end contract: run a primary/standby pair with semi-synchronous
// log shipping, SIGKILL the primary mid-workload, and require (a) the
// standby promotes itself within a bounded window, (b) every write
// acknowledged through the durability barrier survives on the promoted
// standby, and (c) the promoted standby serves new writes.
func TestFailoverPromotesStandbyWithoutAckedWriteLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	pDir, sDir := t.TempDir(), t.TempDir()
	pAddr, sAddr, httpAddr := freeAddr(t), freeAddr(t), freeAddr(t)

	// Standby first, so the primary's very first gated append can ack.
	startDaemonArgs(t, fmt.Sprintf(
		"-standby -listen %s -journal-dir %s -peer-lease 1s -filesets 4 -speeds 1,2 -window 1h -opcost 0 -checkpoint-interval 0",
		sAddr, sDir))
	waitListening(t, sAddr)

	primary := startDaemonArgs(t, fmt.Sprintf(
		"-listen %s -journal-dir %s -replicate-to %s -replicate-sync -sync-timeout 10s -http %s -filesets 4 -speeds 1,2 -window 1h -opcost 0 -checkpoint-interval 0",
		pAddr, pDir, sAddr, httpAddr))
	c := dialRetry(t, pAddr)

	// Workload with periodic durability barriers: everything recorded in
	// acked was covered by a Sync() that returned before the kill.
	type entry struct {
		fs, path string
		size     int64
	}
	var acked []entry
	var pending []entry
	for round := 0; round < 5; round++ {
		for i := 0; i < 4; i++ {
			e := entry{fs: fmt.Sprintf("vol%02d", i), path: fmt.Sprintf("/r%d", round), size: int64(10*round + i)}
			if err := c.Create(e.fs, e.path, sharedisk.Record{Size: e.size, Owner: "failover"}); err != nil {
				t.Fatal(err)
			}
			pending = append(pending, e)
		}
		if err := c.Sync(); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, pending...)
		pending = nil
	}

	// The primary's /metrics surface shows the replication pipeline.
	resp, err := http.Get("http://" + httpAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(body)
	for _, want := range []string{"anufs_replica_ships", "anufs_replica_acked_seq", "anufs_replica_lag_entries", "anufs_replica_ship_rtt_seconds"} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("primary /metrics missing %s", want)
		}
	}
	if strings.Contains(metrics, "anufs_replica_sync_degraded") {
		t.Fatal("sync replication degraded during a healthy run")
	}
	c.Close()

	// SIGKILL the primary: no shutdown path, no final checkpoint.
	if err := primary.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	primary.Wait()
	killedAt := time.Now()

	// The standby must promote and start serving the wire protocol on its
	// own address within a bounded window (peer-lease 1s + watch interval +
	// takeover; 15s is generous for loaded CI, not a tuned bound).
	const promotionBound = 15 * time.Second
	var c2 *wire.Client
	for {
		cl, err := wire.Dial(sAddr)
		if err == nil {
			if _, err := cl.Owner("vol00"); err == nil {
				c2 = cl
				break
			}
			cl.Close()
		}
		if time.Since(killedAt) > promotionBound {
			t.Fatalf("standby did not promote within %s of primary death", promotionBound)
		}
		time.Sleep(50 * time.Millisecond)
	}
	defer c2.Close()
	t.Logf("standby promoted and serving %s after primary SIGKILL", time.Since(killedAt))

	// Zero acked-write loss: every barrier-covered record is present.
	for _, e := range acked {
		rec, err := c2.Stat(e.fs, e.path)
		if err != nil {
			t.Fatalf("acked record %s%s lost in failover: %v", e.fs, e.path, err)
		}
		if rec.Size != e.size || rec.Owner != "failover" {
			t.Fatalf("record %s%s survived wrong: %+v", e.fs, e.path, rec)
		}
	}

	// The promoted standby is a full primary: it takes and persists writes.
	if err := c2.Create("vol01", "/postpromotion", sharedisk.Record{Size: 7, Owner: "failover"}); err != nil {
		t.Fatal(err)
	}
	if err := c2.Sync(); err != nil {
		t.Fatal(err)
	}
	if rec, err := c2.Stat("vol01", "/postpromotion"); err != nil || rec.Size != 7 {
		t.Fatalf("post-promotion write not served back: %+v, %v", rec, err)
	}
}
