package main

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"anufs/internal/sharedisk"
	"anufs/internal/wire"
)

// freeAddr picks a localhost port for a daemon the test is about to start.
// The port is free when picked, but the daemon binds it later, so it is
// drawn from below the kernel's ephemeral range: a ":0" listener elsewhere
// (another package's tests run alongside) cannot take it in between. Ports
// are handed out in sequence from a random start, so this process never
// picks one twice. Where the ephemeral range cannot be read, freeAddr falls
// back to a ":0" port.
func freeAddr(t *testing.T) string {
	t.Helper()
	lo, hi := testPortRange()
	portMu.Lock()
	defer portMu.Unlock()
	for tries := 0; tries < hi-lo; tries++ {
		if nextPort < lo || nextPort >= hi {
			nextPort = lo + rand.Intn(hi-lo)
		}
		addr := fmt.Sprintf("127.0.0.1:%d", nextPort)
		nextPort++
		if ln, err := net.Listen("tcp", addr); err == nil {
			ln.Close()
			return addr
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

var (
	portMu   sync.Mutex
	nextPort int
)

// testPortRange returns the ports freeAddr draws from: the upper half of
// those below the kernel's ephemeral range, or an empty range when that
// range is unknown.
func testPortRange() (lo, hi int) {
	b, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range")
	if err != nil {
		return 0, 0
	}
	var ephemeralLo, ephemeralHi int
	if _, err := fmt.Sscan(string(b), &ephemeralLo, &ephemeralHi); err != nil || ephemeralLo <= 2048 {
		return 0, 0
	}
	return ephemeralLo / 2, ephemeralLo
}

// dialRetry waits for the daemon to come up.
func dialRetry(t *testing.T, addr string) *wire.Client {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c, err := wire.Dial(addr)
		if err == nil {
			return c
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never came up on %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSIGKILLRestartRecovers is the full crash-durability loop over the
// wire: start anufsd with a journal, write metadata, sync, SIGKILL the
// process, restart it on the same journal, and require every synced record
// back.
func TestSIGKILLRestartRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	journalDir := t.TempDir()
	addr := freeAddr(t)

	daemon := startDaemon(t, addr, journalDir)
	c := dialRetry(t, addr)

	type entry struct {
		fs, path string
		size     int64
	}
	var synced []entry
	for i := 0; i < 4; i++ {
		for k := 0; k < 3; k++ {
			e := entry{fs: fmt.Sprintf("vol%02d", i), path: fmt.Sprintf("/f%d", k), size: int64(100*i + k)}
			if err := c.Create(e.fs, e.path, sharedisk.Record{Size: e.size, Owner: "crashtest"}); err != nil {
				t.Fatal(err)
			}
			synced = append(synced, e)
		}
	}
	// Durability barrier: everything above must survive the SIGKILL.
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	// Journal counters prove entries were appended and fsynced.
	js, err := c.JournalStats()
	if err != nil {
		t.Fatal(err)
	}
	if js["journal_records_appended"] == 0 || js["journal_fsyncs"] == 0 {
		t.Fatalf("journal counters empty after sync: %v", js)
	}
	// A write after the barrier may or may not survive; it must not be
	// required to.
	_ = c.Create("vol00", "/unsynced", sharedisk.Record{Size: 1})
	c.Close()

	if err := daemon.Process.Kill(); err != nil { // SIGKILL: no shutdown path runs
		t.Fatal(err)
	}
	daemon.Wait()

	addr2 := freeAddr(t)
	startDaemon(t, addr2, journalDir)
	c2 := dialRetry(t, addr2)
	defer c2.Close()

	for _, e := range synced {
		rec, err := c2.Stat(e.fs, e.path)
		if err != nil {
			t.Fatalf("synced record %s%s lost across SIGKILL: %v", e.fs, e.path, err)
		}
		if rec.Size != e.size || rec.Owner != "crashtest" {
			t.Fatalf("record %s%s recovered wrong: %+v", e.fs, e.path, rec)
		}
	}
	// Recovery stats are exported after restart.
	js2, err := c2.JournalStats()
	if err != nil {
		t.Fatal(err)
	}
	if js2["journal_recovered_entries"] == 0 {
		t.Fatalf("restart reported no recovered entries: %v", js2)
	}
	// The restarted daemon keeps serving writes.
	if err := c2.Create("vol01", "/postrestart", sharedisk.Record{Size: 5}); err != nil {
		t.Fatal(err)
	}
	if err := c2.Sync(); err != nil {
		t.Fatal(err)
	}
}
