package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"anufs/internal/journal"
	"anufs/internal/sharedisk"
	"anufs/internal/wire"
)

// TestMain lets this test binary double as the daemon: when ANUFSD_ARGS is
// set, it runs main() with those arguments instead of the tests. The
// process tests use that to SIGKILL a real anufsd — a crash no in-process
// test can simulate faithfully.
//
// A child's stdin is a pipe whose write end its parent holds and never
// writes to (see spawn). The child exits when that pipe reaches EOF, so it
// cannot outlive the test binary however that ends — a panic, -timeout and
// SIGKILL all close the write end, and none of them runs a t.Cleanup.
func TestMain(m *testing.M) {
	if args := os.Getenv("ANUFSD_ARGS"); args != "" {
		go exitWithParent()
		os.Args = append([]string{"anufsd"}, strings.Fields(args)...)
		main()
		return
	}
	if args := os.Getenv("ANUFSD_SPAWNER"); args != "" {
		// The orphan test's middle process: start one daemon the way a test
		// would, say which process it is, and wait to be killed.
		cmd, err := spawn(args)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(cmd.Process.Pid)
		exitWithParent()
	}
	os.Exit(m.Run())
}

// exitWithParent returns only by ending the process, once stdin reaches EOF.
func exitWithParent() {
	_, _ = io.Copy(io.Discard, os.Stdin)
	os.Exit(3)
}

// spawn starts this test binary as anufsd with the given flags. The child's
// stdin is a pipe: cmd holds the write end until cmd.Wait.
func spawn(args string) (*exec.Cmd, error) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "ANUFSD_ARGS="+args)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if _, err := cmd.StdinPipe(); err != nil {
		return nil, err
	}
	return cmd, cmd.Start()
}

// startDaemonArgs launches anufsd with explicit flags. The daemon is killed
// and reaped when the test ends; a test that kills it earlier need not say
// so.
func startDaemonArgs(t *testing.T, args string) *exec.Cmd {
	t.Helper()
	cmd, err := spawn(args)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill() // an error means it is already dead
		_ = cmd.Wait()         // likewise already reaped
	})
	return cmd
}

// startDaemon launches a journaled two-server daemon.
func startDaemon(t *testing.T, addr, journalDir string) *exec.Cmd {
	t.Helper()
	return startDaemonArgs(t, fmt.Sprintf(
		"-listen %s -journal-dir %s -filesets 4 -speeds 1,2 -window 1h -opcost 0 -checkpoint-interval 0",
		addr, journalDir))
}

// startDaemonObs launches the daemon with the observability HTTP endpoint
// enabled and a fast tuning window, so the test sees tuner decisions.
func startDaemonObs(t *testing.T, addr, httpAddr, journalDir string) *exec.Cmd {
	t.Helper()
	return startDaemonArgs(t, fmt.Sprintf(
		"-listen %s -http %s -journal-dir %s -filesets 4 -speeds 1,4 -window 100ms -opcost 200us -checkpoint-interval 0",
		addr, httpAddr, journalDir))
}

// listening reports whether anything accepts TCP on addr.
func listening(addr string) bool {
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return false
	}
	c.Close()
	return true
}

// TestDaemonDiesWithItsSpawner: a process that started a daemon through
// spawn is SIGKILLed — no deferred call, no cleanup — and the daemon is
// gone within a second.
func TestDaemonDiesWithItsSpawner(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	addr := freeAddr(t)
	spawner := exec.Command(os.Args[0])
	spawner.Env = append(os.Environ(), "ANUFSD_SPAWNER="+fmt.Sprintf(
		"-listen %s -journal-dir %s -filesets 2 -speeds 1 -window 1h -opcost 0", addr, t.TempDir()))
	spawner.Stderr = os.Stderr
	if _, err := spawner.StdinPipe(); err != nil {
		t.Fatal(err)
	}
	out, err := spawner.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := spawner.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = spawner.Process.Kill()
		_ = spawner.Wait()
	})
	var pid int
	if _, err := fmt.Fscan(bufio.NewReader(out), &pid); err != nil {
		t.Fatalf("the spawner never named its daemon: %v", err)
	}
	waitListening(t, addr)

	if err := spawner.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for listening(addr) || processRuns(pid) {
		if time.Now().After(deadline) {
			_ = syscall.Kill(pid, syscall.SIGKILL)
			t.Fatalf("daemon %d outlived its SIGKILLed spawner by a second", pid)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The orphan is init's to reap. Give it a moment (best effort), so a
	// pgrep run right after the suite does not count the zombie.
	for i := 0; i < 200; i++ {
		if _, err := os.Stat(fmt.Sprintf("/proc/%d", pid)); err != nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// processRuns reports whether pid names a process that still executes: one
// that exited but has not been reaped (a zombie, which an orphan stays
// until init gets to it) does not.
func processRuns(pid int) bool {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return syscall.Kill(pid, 0) == nil && !os.IsNotExist(err)
	}
	// "pid (comm) S ...": the state follows the last ')'.
	rest := string(stat[strings.LastIndexByte(string(stat), ')')+1:])
	return !strings.HasPrefix(strings.TrimSpace(rest), "Z")
}

// TestReplicatingPrimaryStopsOnSIGTERM: a semi-sync primary with writes in
// flight exits 0 within five seconds of SIGTERM — committer, sleep helper,
// shipper and every server goroutine end — and nothing listens afterwards.
func TestReplicatingPrimaryStopsOnSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	pAddr, sAddr := freeAddr(t), freeAddr(t)
	common := "-filesets 4 -speeds 1,2 -window 1h -opcost 0"
	startDaemonArgs(t, fmt.Sprintf("-standby -listen %s -journal-dir %s -peer-lease 30s %s", sAddr, t.TempDir(), common))
	waitListening(t, sAddr)
	primary := startDaemonArgs(t, fmt.Sprintf(
		"-listen %s -journal-dir %s -replicate-to %s -replicate-sync -checkpoint-interval 50ms %s",
		pAddr, t.TempDir(), sAddr, common))
	dialRetry(t, pAddr).Close()

	// Writers that keep durable writes in flight until the daemon is gone.
	var wg sync.WaitGroup
	acked := make(chan struct{}, 1)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := wire.Dial(pAddr)
			if err != nil {
				t.Errorf("writer %d: %v", w, err)
				return
			}
			defer c.Close()
			fs := fmt.Sprintf("vol%02d", w)
			for i := 0; ; i++ {
				if err := c.Create(fs, fmt.Sprintf("/w%d-%d", w, i), sharedisk.Record{Size: int64(i)}); err != nil {
					return
				}
				if err := c.Sync(); err != nil {
					return
				}
				select {
				case acked <- struct{}{}:
				default:
				}
			}
		}(w)
	}
	select {
	case <-acked:
	case <-time.After(10 * time.Second):
		t.Fatal("no durable write was acknowledged")
	}

	if err := primary.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- primary.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("primary under load did not exit 0 on SIGTERM: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("primary under load still running 5 s after SIGTERM")
	}
	wg.Wait()
	if listening(pAddr) {
		t.Fatalf("something still listens on %s after the primary exited", pAddr)
	}
}

// TestGracefulStopReachesStandby: records that are dirty when a replicating
// primary is told to stop are journaled by its final checkpoint, and those
// entries reach the standby like any others — the shipper stops after that
// checkpoint, not before it. A standby promoted after a clean shutdown lacks
// nothing.
func TestGracefulStopReachesStandby(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	pAddr, sAddr := freeAddr(t), freeAddr(t)
	pDir, sDir := t.TempDir(), t.TempDir()
	common := "-filesets 4 -speeds 1,2 -window 1h -opcost 0 -checkpoint-interval 0"
	startDaemonArgs(t, fmt.Sprintf("-standby -listen %s -journal-dir %s -peer-lease 30s %s", sAddr, sDir, common))
	waitListening(t, sAddr)
	primary := startDaemonArgs(t, fmt.Sprintf(
		"-listen %s -journal-dir %s -replicate-to %s -replicate-sync -sync-timeout 10s %s", pAddr, pDir, sAddr, common))
	c := dialRetry(t, pAddr)
	for i := 0; i < 4; i++ { // cached in the metadata servers: no sync, no checkpointer
		if err := c.Create(fmt.Sprintf("vol%02d", i), "/dirty", sharedisk.Record{Size: int64(100 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	if err := primary.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := primary.Wait(); err != nil {
		t.Fatalf("primary did not exit 0: %v", err)
	}
	pStore, pInfo, err := journal.Recover(pDir)
	if err != nil {
		t.Fatal(err)
	}
	sStore, sInfo, err := journal.Recover(sDir)
	if err != nil {
		t.Fatal(err)
	}
	if sInfo.LastSeq != pInfo.LastSeq {
		t.Fatalf("standby holds %d entries of the primary's %d after a clean shutdown", sInfo.LastSeq, pInfo.LastSeq)
	}
	for i := 0; i < 4; i++ {
		for who, st := range map[string]*sharedisk.Store{"primary": pStore, "standby": sStore} {
			im, err := st.Load(fmt.Sprintf("vol%02d", i))
			if err != nil || im.Records["/dirty"].Size != int64(100+i) {
				t.Fatalf("%s lacks vol%02d/dirty after a clean shutdown: %+v, %v", who, i, im.Records, err)
			}
		}
	}
}
