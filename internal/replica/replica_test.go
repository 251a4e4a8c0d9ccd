package replica

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"anufs/internal/journal"
	"anufs/internal/obs"
	"anufs/internal/sharedisk"
	"anufs/internal/wire"
)

// openJournal opens (or recovers) a journal directory for tests.
func openJournal(t testing.TB, dir string, opts journal.Options) (*journal.Journal, *sharedisk.Store) {
	t.Helper()
	jnl, store, _, err := journal.Open(dir, opts)
	if err != nil {
		t.Fatalf("open journal %s: %v", dir, err)
	}
	return jnl, store
}

// appendFlushes journals n flush entries, each a distinct one-record image
// for file set fs (version = prior+i), and returns the store-side images
// func for snapshot capture.
func appendFlushes(t testing.TB, jnl *journal.Journal, fs string, from, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		v := uint64(from + i)
		im := sharedisk.Image{
			Version: v,
			Records: map[string]sharedisk.Record{
				fmt.Sprintf("/f%04d", v): {Size: int64(v), Owner: "w"},
			},
		}
		if err := jnl.LogFlush(fs, im); err != nil {
			t.Fatalf("LogFlush %d: %v", v, err)
		}
	}
}

// diskImages captures a primary's cut by recovering its directory: for tests
// that append to the journal directly, so that the store Open returned never
// learns of the entries. CaptureCut calls it with commits paused, so what
// recovery reads is exactly the durable prefix.
func diskImages(t testing.TB, dir string) func() map[string]sharedisk.Image {
	return func() map[string]sharedisk.Image {
		st, _, err := journal.Recover(dir)
		if err != nil {
			t.Errorf("recover %s for a cut: %v", dir, err)
			return nil
		}
		return st.Images()
	}
}

// startStandby builds a receiver over its own journal dir and listens.
func startStandby(t testing.TB, dir string, opts ReceiverOptions) (*Receiver, string) {
	t.Helper()
	jnl, store := openJournal(t, dir, journal.Options{})
	opts.Journal = jnl
	opts.Images = store.Images()
	recv, err := NewReceiver(opts)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := recv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		recv.Stop()
		jnl.Close()
	})
	return recv, addr
}

// waitAcked polls until the shipper's ack reaches seq.
func waitAcked(t testing.TB, s *Shipper, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.Acked() < seq {
		if time.Now().After(deadline) {
			t.Fatalf("shipper stuck at ack %d, want %d", s.Acked(), seq)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// requireStandbyEquals checks the standby's warm state AND its recovered
// journal both match the primary's durable state.
func requireStandbyEquals(t *testing.T, primaryDir string, recv *Receiver) {
	t.Helper()
	pStore, pInfo, err := journal.Recover(primaryDir)
	if err != nil {
		t.Fatalf("recover primary: %v", err)
	}
	warm, applied := recv.State()
	if applied != pInfo.LastSeq {
		t.Fatalf("standby applied %d, primary durable %d", applied, pInfo.LastSeq)
	}
	if !reflect.DeepEqual(warm, pStore.Images()) {
		t.Fatalf("standby warm state diverged:\n standby %+v\n primary %+v", warm, pStore.Images())
	}
}

func TestCatchUpThenLiveStreaming(t *testing.T) {
	pDir, sDir := t.TempDir(), t.TempDir()
	jnl, store := openJournal(t, pDir, journal.Options{})
	defer jnl.Close()
	if err := jnl.LogCreateFileSet("fs00"); err != nil {
		t.Fatal(err)
	}
	// Backlog written before the standby exists: the shipper must catch up.
	appendFlushes(t, jnl, "fs00", 1, 20)

	recv, addr := startStandby(t, sDir, ReceiverOptions{})
	reg := obs.New()
	ship, err := NewShipper(ShipperOptions{Addr: addr, Journal: jnl, Images: store.Images, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	ship.Start()
	defer ship.Stop()
	waitAcked(t, ship, jnl.DurableSeq())

	// Live tail: entries appended while the stream is up.
	appendFlushes(t, jnl, "fs00", 21, 20)
	waitAcked(t, ship, jnl.DurableSeq())
	requireStandbyEquals(t, pDir, recv)

	if got := reg.Counter("replica_shipped_entries").Load(); got < 41 {
		t.Fatalf("shipped %d entries, want >= 41", got)
	}
}

func TestResumeAfterShipperRestartAndStandbyRestart(t *testing.T) {
	pDir, sDir := t.TempDir(), t.TempDir()
	jnl, store := openJournal(t, pDir, journal.Options{})
	defer jnl.Close()
	if err := jnl.LogCreateFileSet("fs00"); err != nil {
		t.Fatal(err)
	}
	appendFlushes(t, jnl, "fs00", 1, 10)

	sJnl, sStore := openJournal(t, sDir, journal.Options{})
	recv, err := NewReceiver(ReceiverOptions{Journal: sJnl, Images: sStore.Images()})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := recv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ship, err := NewShipper(ShipperOptions{Addr: addr, Journal: jnl, Images: store.Images})
	if err != nil {
		t.Fatal(err)
	}
	ship.Start()
	waitAcked(t, ship, jnl.DurableSeq())

	// Primary-side stream break: stop the shipper, write more, restart.
	ship.Stop()
	appendFlushes(t, jnl, "fs00", 11, 10)
	// A new shipper opens with a reset, as a new incarnation would.
	ship2, err := NewShipper(ShipperOptions{Addr: addr, Journal: jnl, Images: diskImages(t, pDir)})
	if err != nil {
		t.Fatal(err)
	}
	ship2.Start()
	waitAcked(t, ship2, jnl.DurableSeq())
	ship2.Stop()

	// Standby restart: tear the whole receiver down, recover its journal
	// from disk — the durable sequence IS the resume point.
	recv.Stop()
	if err := sJnl.Close(); err != nil {
		t.Fatal(err)
	}
	appendFlushes(t, jnl, "fs00", 21, 10)
	recv2, addr2 := startStandby(t, sDir, ReceiverOptions{})
	ship3, err := NewShipper(ShipperOptions{Addr: addr2, Journal: jnl, Images: diskImages(t, pDir)})
	if err != nil {
		t.Fatal(err)
	}
	ship3.Start()
	defer ship3.Stop()
	waitAcked(t, ship3, jnl.DurableSeq())
	requireStandbyEquals(t, pDir, recv2)
}

func TestSnapshotFallbackWhenStandbyBehindCompaction(t *testing.T) {
	pDir, sDir := t.TempDir(), t.TempDir()
	jnl, store := openJournal(t, pDir, journal.Options{})
	defer jnl.Close()
	if err := jnl.LogCreateFileSet("fs00"); err != nil {
		t.Fatal(err)
	}
	appendFlushes(t, jnl, "fs00", 1, 10)
	// Compact everything into a snapshot: a standby starting from zero can
	// no longer be served from segments.
	if err := jnl.Snapshot(func(encode func(map[string]sharedisk.Image) error) error { return encode(store.Images()) }); err != nil {
		t.Fatal(err)
	}

	recv, addr := startStandby(t, sDir, ReceiverOptions{})
	reg := obs.New()
	ship, err := NewShipper(ShipperOptions{Addr: addr, Journal: jnl, Images: store.Images, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	ship.Start()
	defer ship.Stop()
	waitAcked(t, ship, jnl.DurableSeq())
	if got := reg.Counter("replica_snapshots_shipped").Load(); got == 0 {
		t.Fatal("standby caught up without a snapshot ship")
	}

	// Streaming continues past the snapshot.
	appendFlushes(t, jnl, "fs00", 11, 5)
	waitAcked(t, ship, jnl.DurableSeq())
	requireStandbyEquals(t, pDir, recv)
}

func TestSyncGateWaitsForStandbyAck(t *testing.T) {
	pDir, sDir := t.TempDir(), t.TempDir()
	jnl, store := openJournal(t, pDir, journal.Options{})
	defer jnl.Close()

	_, addr := startStandby(t, sDir, ReceiverOptions{})
	reg := obs.New()
	ship, err := NewShipper(ShipperOptions{Addr: addr, Journal: jnl, Images: store.Images, SyncTimeout: 10 * time.Second, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	ship.Start()
	defer ship.Stop()
	jnl.SetAckGate(ship.WaitAcked)

	if err := jnl.LogCreateFileSet("fs00"); err != nil {
		t.Fatal(err)
	}
	appendFlushes(t, jnl, "fs00", 1, 5)
	// Semi-sync: every acked append is already standby-durable.
	if got, want := ship.Acked(), jnl.DurableSeq(); got < want {
		t.Fatalf("append acked before standby ack: acked %d, durable %d", got, want)
	}
	if reg.Counter("replica_sync_degraded").Load() != 0 {
		t.Fatal("sync write degraded with a healthy standby")
	}
}

func TestSyncGateDegradesWhenStandbyUnreachable(t *testing.T) {
	pDir := t.TempDir()
	jnl, store := openJournal(t, pDir, journal.Options{})
	defer jnl.Close()

	// No listener at this address: replication can never ack.
	reg := obs.New()
	ship, err := NewShipper(ShipperOptions{
		Addr: "127.0.0.1:1", Journal: jnl, Images: store.Images,
		SyncTimeout: 20 * time.Millisecond, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ship.backoff = 10 * time.Millisecond
	ship.Start()
	defer ship.Stop()
	jnl.SetAckGate(ship.WaitAcked)

	done := make(chan error, 1)
	go func() { done <- jnl.LogCreateFileSet("fs00") }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("degraded append failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("append blocked forever on an unreachable standby")
	}
	if reg.Counter("replica_sync_degraded").Load() == 0 {
		t.Fatal("degrade not counted")
	}
}

func TestPromotionOnPrimarySilence(t *testing.T) {
	pDir, sDir := t.TempDir(), t.TempDir()
	jnl, store := openJournal(t, pDir, journal.Options{})
	defer jnl.Close()
	if err := jnl.LogCreateFileSet("fs00"); err != nil {
		t.Fatal(err)
	}
	appendFlushes(t, jnl, "fs00", 1, 8)

	recv, addr := startStandby(t, sDir, ReceiverOptions{Lease: 200 * time.Millisecond})
	ship, err := NewShipper(ShipperOptions{Addr: addr, Journal: jnl, Images: store.Images})
	if err != nil {
		t.Fatal(err)
	}
	ship.heartbeat = 20 * time.Millisecond
	ship.Start()
	waitAcked(t, ship, jnl.DurableSeq())

	// The primary is idle but alive: heartbeats must hold promotion off.
	select {
	case <-recv.Promoted():
		t.Fatal("standby promoted under an idle-but-heartbeating primary")
	case <-time.After(600 * time.Millisecond):
	}

	// Primary dies.
	ship.Stop()
	select {
	case <-recv.Promoted():
	case <-time.After(10 * time.Second):
		t.Fatal("standby never promoted after primary went silent")
	}

	// The promoted standby's state is the primary's durable state.
	requireStandbyEquals(t, pDir, recv)

	// Straggler ships from a resurrected primary are refused.
	c, err := wire.Dial(addr)
	if err == nil {
		defer c.Close()
		if _, err := c.ShipStatus(); err == nil {
			t.Fatal("promoted standby accepted ship-status")
		}
	}
}

func TestStandbyPromotesWhenPrimaryNeverAppears(t *testing.T) {
	_, sDir := t.TempDir(), t.TempDir()
	recv, _ := startStandby(t, sDir, ReceiverOptions{Lease: 100 * time.Millisecond})
	select {
	case <-recv.Promoted():
		// Promotion must come AFTER the startup grace, not instantly.
	case <-time.After(10 * time.Second):
		t.Fatal("lone standby never promoted")
	}
}

// TestLeaseHeldWhileAShipIsAbsorbed: a ship the standby is still absorbing
// holds the primary's lease however long it takes, and the lease lapses
// only after the answer. The test calls the lease timer's function itself
// at each point, so it waits out no lease.
func TestLeaseHeldWhileAShipIsAbsorbed(t *testing.T) {
	pJnl, _ := openJournal(t, t.TempDir(), journal.Options{})
	defer pJnl.Close()
	if err := pJnl.LogCreateFileSet("fs00"); err != nil {
		t.Fatal(err)
	}
	ent := readLog(t, pJnl, 1, 1)[0]
	ship := wire.Request{Op: wire.OpShip, Entries: []wire.ShipEntry{{Seq: ent.Seq, Payload: ent.Payload}}}

	sDir := t.TempDir()
	sJnl, sStore := openJournal(t, sDir, journal.Options{})
	defer sJnl.Close()
	recv, err := NewReceiver(ReceiverOptions{Journal: sJnl, Images: sStore.Images(), Lease: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer recv.Stop()

	release := holdCommits(t, sJnl, diskImages(t, sDir))
	answer := make(chan wire.Response, 1)
	go func() { answer <- recv.handle(ship) }()
	inFlight := func() bool {
		recv.mu.Lock()
		defer recv.mu.Unlock()
		return recv.absorbing > 0
	}
	for !inFlight() {
		runtime.Gosched()
	}
	recv.lapsed()
	if recv.isPromoted() {
		t.Error("promoted while the primary's ship was being absorbed")
	}

	release()
	if resp := <-answer; resp.Err != "" || resp.AckSeq != ent.Seq {
		t.Fatalf("ship answered %+v, want ack %d", resp, ent.Seq)
	}
	recv.lapsed()
	if !recv.isPromoted() {
		t.Fatal("not promoted when the lease lapsed after the answer")
	}
	if resp := recv.handle(ship); resp.Err != ErrPromoted.Error() {
		t.Fatalf("a ship after promotion answered %+v, want %v", resp, ErrPromoted)
	}
}

// TestShipperReportsWhyItsSessionEnded: a primary shipping to a standby
// that promoted says so on /status, rather than only counting stream
// errors.
func TestShipperReportsWhyItsSessionEnded(t *testing.T) {
	recv, addr := startStandby(t, t.TempDir(), ReceiverOptions{Lease: 20 * time.Millisecond})
	<-recv.Promoted()
	jnl, store := openJournal(t, t.TempDir(), journal.Options{})
	defer jnl.Close()
	reg := obs.New()
	ship, err := NewShipper(ShipperOptions{Addr: addr, Journal: jnl, Images: store.Images, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	ship.backoff = time.Millisecond
	ship.Start()
	defer ship.Stop()
	waitFor(t, "a failed session", func() bool { return ship.lastError() != nil })
	status := reg.Status()["replication"].(map[string]any)
	if got := status["last_error"]; got != ErrPromoted.Error() {
		t.Fatalf("replication last_error = %q, want %q", got, ErrPromoted)
	}
}

func TestStandbyRefusesClientOps(t *testing.T) {
	_, sDir := t.TempDir(), t.TempDir()
	_, addr := startStandby(t, sDir, ReceiverOptions{})
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Owner("fs00"); err == nil {
		t.Fatal("standby served a client op before promotion")
	}
}

// TestSnapshotShipAboveTheClientCeiling: a snapshot ship whose frame is
// larger than wire.MaxFramePayload round-trips to the standby over the
// replication hop's own ceiling and is applied; a connection dialed under
// the ordinary ceiling refuses to send it.
func TestSnapshotShipAboveTheClientCeiling(t *testing.T) {
	recv, addr := startStandby(t, t.TempDir(), ReceiverOptions{})
	big := sharedisk.Image{Version: 1, Records: map[string]sharedisk.Record{}}
	owner := strings.Repeat("o", 1<<10)
	for i := 0; i < 17<<10; i++ { // 17 MiB of owners: the cut travels raw
		big.Records[fmt.Sprintf("/f%05d", i)] = sharedisk.Record{Size: int64(i), Owner: owner}
	}
	images := map[string]sharedisk.Image{"fs00": big}
	snap := journal.EncodeImages(images)
	if len(snap) <= wire.MaxFramePayload {
		t.Fatalf("snapshot is %d bytes, not above the %d client ceiling", len(snap), wire.MaxFramePayload)
	}

	small, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	if _, err := small.ShipSnapshot(9, snap); !errors.Is(err, wire.ErrFrameTooLarge) {
		t.Fatalf("ship under the ordinary ceiling = %v, want ErrFrameTooLarge", err)
	}

	c, err := wire.DialLimit(addr, shipTimeout, maxShipFrame)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ack, err := c.ShipSnapshot(9, snap)
	if err != nil || ack != 9 {
		t.Fatalf("ShipSnapshot = ack %d, %v", ack, err)
	}
	warm, applied := recv.State()
	if applied != 9 || !reflect.DeepEqual(warm, images) {
		t.Fatalf("standby applied %d with %d file sets (%d records), want the shipped cut at 9",
			applied, len(warm), len(warm["fs00"].Records))
	}
}

// flushDeltas runs n flushes of fs through the durable disk, as a server
// would: each puts two records, overwrites one from the flush before and
// removes one from two flushes before.
func flushDeltas(t *testing.T, d *sharedisk.Durable, fs string, from, n int) {
	t.Helper()
	name := func(i int) string { return fmt.Sprintf("/f%04d", i) }
	for i := from; i < from+n; i++ {
		v, err := d.Version(fs)
		if err != nil {
			t.Fatal(err)
		}
		dl := sharedisk.Delta{Base: v, Puts: map[string]sharedisk.Record{
			name(2 * i): {Size: int64(i), Owner: "w"}, name(2*i + 1): {Size: int64(i)}, name(2*i - 1): {Size: -1},
		}}
		if i >= from+2 {
			dl.Removes = []string{name(2*i - 4)}
		}
		_, c, err := d.FlushDelta(0, fs, dl)
		if err == nil {
			err = c.Wait()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// requireWarmEquals checks the standby's warm images against the primary's
// live store at the primary's durable sequence.
func requireWarmEquals(t *testing.T, recv *Receiver, d *sharedisk.Durable, seq uint64) {
	t.Helper()
	warm, applied := recv.State()
	if applied != seq {
		t.Fatalf("standby applied %d, primary durable %d", applied, seq)
	}
	if want := d.Store.Images(); !reflect.DeepEqual(warm, want) {
		t.Fatalf("standby warm state diverged from the primary's store:\n standby %+v\n primary %+v", warm, want)
	}
}

// TestDeltaStreamKeepsStandbyWarm: a standby fed record-level deltas holds
// the primary's exact images — while streaming, across a standby restart
// (its own journal of deltas replays to the resume point), and for a
// standby that starts behind the primary's compaction horizon and is
// seeded by a shipped snapshot before the deltas continue.
func TestDeltaStreamKeepsStandbyWarm(t *testing.T) {
	pDir, sDir := t.TempDir(), t.TempDir()
	jnl, store := openJournal(t, pDir, journal.Options{})
	defer jnl.Close()
	d := sharedisk.NewDurable(store, jnl, 0)
	for _, fs := range []string{"fs00", "fs01"} {
		if err := d.CreateFileSet(fs); err != nil {
			t.Fatal(err)
		}
	}
	flushDeltas(t, d, "fs00", 1, 10)

	sJnl, sStore := openJournal(t, sDir, journal.Options{})
	recv, err := NewReceiver(ReceiverOptions{Journal: sJnl, Images: sStore.Images()})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := recv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ship, err := NewShipper(ShipperOptions{Addr: addr, Journal: jnl, Images: d.Store.Images})
	if err != nil {
		t.Fatal(err)
	}
	ship.Start()
	flushDeltas(t, d, "fs01", 1, 10)
	waitAcked(t, ship, jnl.DurableSeq())
	requireWarmEquals(t, recv, d, jnl.DurableSeq())

	// Standby restart: its journal of deltas is all it has.
	ship.Stop()
	recv.Stop()
	if err := sJnl.Close(); err != nil {
		t.Fatal(err)
	}
	flushDeltas(t, d, "fs00", 11, 10)
	recv2, addr2 := startStandby(t, sDir, ReceiverOptions{})
	ship2, err := NewShipper(ShipperOptions{Addr: addr2, Journal: jnl, Images: d.Store.Images})
	if err != nil {
		t.Fatal(err)
	}
	ship2.Start()
	flushDeltas(t, d, "fs01", 11, 10)
	waitAcked(t, ship2, jnl.DurableSeq())
	requireWarmEquals(t, recv2, d, jnl.DurableSeq())
	ship2.Stop()

	// Snapshot-ship fallback: compact the primary's log, then bring up a
	// standby from nothing. It is seeded by the cut and fed deltas after.
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	recv3, addr3 := startStandby(t, t.TempDir(), ReceiverOptions{})
	reg := obs.New()
	ship3, err := NewShipper(ShipperOptions{Addr: addr3, Journal: jnl, Images: d.Store.Images, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	ship3.Start()
	defer ship3.Stop()
	waitAcked(t, ship3, jnl.DurableSeq())
	if got := reg.Counter("replica_snapshots_shipped").Load(); got == 0 {
		t.Fatal("standby caught up without a snapshot ship")
	}
	flushDeltas(t, d, "fs00", 21, 10)
	waitAcked(t, ship3, jnl.DurableSeq())
	requireWarmEquals(t, recv3, d, jnl.DurableSeq())
}

func BenchmarkShipThroughput(b *testing.B) {
	pDir, sDir := b.TempDir(), b.TempDir()
	jnl, store := openJournal(b, pDir, journal.Options{})
	defer jnl.Close()
	if err := jnl.LogCreateFileSet("fs00"); err != nil {
		b.Fatal(err)
	}
	_, addr := startStandby(b, sDir, ReceiverOptions{SnapshotEvery: -1})
	ship, err := NewShipper(ShipperOptions{Addr: addr, Journal: jnl, Images: store.Images})
	if err != nil {
		b.Fatal(err)
	}
	ship.Start()
	defer ship.Stop()

	b.ResetTimer()
	appendFlushes(b, jnl, "fs00", 1, b.N)
	waitAcked(b, ship, jnl.DurableSeq())
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "entries/s")
}

// TestReceiverServesEveryStandbyOp: a row of wire.Ops under ClassStandby is
// a promise that the standby serves it; one the receiver has no arm for is
// refused as "replication only" and fails here.
func TestReceiverServesEveryStandbyOp(t *testing.T) {
	recv, _ := startStandby(t, t.TempDir(), ReceiverOptions{})
	for _, info := range wire.Ops {
		resp := recv.handle(wire.Request{Op: info.Op})
		refused := strings.Contains(resp.Err, "standby serves replication only")
		// Beside its own class the standby answers what every process does
		// (wire.Endpoint.Local): it is a hop in the fleet's traces.
		everywhere := info.Op == wire.OpPing || info.Op == wire.OpTrace || info.Op == wire.OpTracePull
		if want := info.Class != wire.ClassStandby && !everywhere; refused != want {
			t.Errorf("%s (class %d): refused = %v, want %v (%q)", info.Op, info.Class, refused, want, resp.Err)
		}
	}
}
