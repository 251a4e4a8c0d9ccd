package fleet

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anufs/internal/journal"
	"anufs/internal/live"
	"anufs/internal/obs"
	"anufs/internal/placement"
	"anufs/internal/sharedisk"
	"anufs/internal/wire"
)

// addDaemon spins up one more in-process daemon (join mode) against an
// existing fleet and registers it with the authority over the wire.
func addDaemon(t *testing.T, f *testFleet, id int, speed float64) *testDaemon {
	t.Helper()
	d := &testDaemon{id: id, disk: sharedisk.NewStore(0)}
	cfg := live.DefaultConfig()
	cfg.Window = time.Hour
	cfg.OpCost = 0
	cfg.RetryBudget = 200 * time.Millisecond
	clus, err := live.NewCluster(cfg, d.disk, map[int]float64{0: 1})
	if err != nil {
		t.Fatal(err)
	}
	d.clus = clus
	d.srv = wire.NewServer(clus)
	addr, err := d.srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d.addr = addr
	cm, err := f.auth.Join(id, addr, speed, "")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMember(MemberConfig{
		ID:            id,
		Cluster:       clus,
		Disk:          d.disk,
		AuthorityAddr: f.daemons[0].addr,
		Addr:          addr,
		Speed:         speed,
		PollInterval:  20 * time.Millisecond,
	}, cm)
	if err != nil {
		t.Fatal(err)
	}
	testSeams(m)
	d.member = m
	d.srv.SetFleet(m)
	m.Start()
	f.daemons = append(f.daemons, d)
	t.Cleanup(func() {
		m.Stop()
		d.srv.Close()
		d.clus.Stop()
	})
	return d
}

// TestJoinAddsDaemonLive: a daemon joins a running fleet over the wire — no
// restart — and the next rebalance moves load onto it with data intact.
func TestJoinAddsDaemonLive(t *testing.T) {
	f := startFleet(t, []float64{1, 1}, nil)
	r := f.router(t)
	names := []string{"vol00", "vol01", "vol02", "vol03", "vol04", "vol05"}
	for _, fs := range names {
		if err := r.CreateFileSet(fs); err != nil {
			t.Fatal(err)
		}
		if err := r.Create(fs, "/seed", sharedisk.Record{Size: 3}); err != nil {
			t.Fatal(err)
		}
	}
	before := f.auth.Epoch()

	// The newcomer is much faster than the incumbents, so rebalance must
	// route file sets to it.
	addDaemon(t, f, 2, 8)

	cm := f.auth.Map()
	if cm.Epoch <= before {
		t.Fatalf("join did not bump the epoch: %d -> %d", before, cm.Epoch)
	}
	if _, ok := cm.Daemon(2); !ok {
		t.Fatal("joined daemon absent from the map")
	}
	if got := len(cm.FileSetsOf(2)); got != 0 {
		t.Fatalf("join moved %d file sets without a handoff", got)
	}
	if n := f.daemons[0].clus.Obs().Counter(CtrJoins).Load(); n != 1 {
		t.Fatalf("join counter = %d, want 1", n)
	}

	if _, err := f.auth.Rebalance(); err != nil {
		t.Fatal(err)
	}
	cm = f.auth.Map()
	if got := len(cm.FileSetsOf(2)); got < len(names)/2 {
		t.Fatalf("fast newcomer owns %d of %d file sets after rebalance", got, len(names))
	}
	for _, fs := range names {
		if rec, err := r.Stat(fs, "/seed"); err != nil || rec.Size != 3 {
			t.Fatalf("Stat %s after join+rebalance = %+v, %v", fs, rec, err)
		}
	}

	// Idempotent re-join: same identity, no epoch bump.
	cur := f.auth.Epoch()
	if _, err := f.auth.Join(2, f.daemons[2].addr, 8, ""); err != nil {
		t.Fatal(err)
	}
	if got := f.auth.Epoch(); got != cur {
		t.Fatalf("idempotent re-join bumped the epoch %d -> %d", cur, got)
	}
}

// TestJoinRejectsBadSpeed is the satellite regression test for the
// rescaleBySpeed division hazard: non-positive and NaN speeds must be
// rejected at the door (constructor and join), never fed to the mapper.
func TestJoinRejectsBadSpeed(t *testing.T) {
	for _, bad := range []float64{0, -1, math.NaN()} {
		_, err := NewAuthority(AuthorityConfig{
			Daemons: []placement.DaemonInfo{{ID: 0, Addr: "a:1", Speed: bad}},
		})
		if err == nil || !strings.Contains(err.Error(), "speed") {
			t.Fatalf("NewAuthority with speed %v = %v, want speed error", bad, err)
		}
	}
	auth, err := NewAuthority(AuthorityConfig{
		Daemons: []placement.DaemonInfo{{ID: 0, Addr: "a:1", Speed: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	auth.dial = noNetwork
	before := auth.Epoch()
	for _, bad := range []float64{0, -1, math.NaN()} {
		if _, err := auth.Join(7, "b:1", bad, ""); err == nil {
			t.Fatalf("Join with speed %v accepted", bad)
		}
	}
	if got := auth.Epoch(); got != before {
		t.Fatalf("rejected joins moved the epoch %d -> %d", before, got)
	}
	if _, ok := auth.Map().Daemon(7); ok {
		t.Fatal("rejected daemon leaked into the map")
	}
}

// TestLeaveDrainsDaemon: a graceful leave hands every owned file set off to
// the survivors before the daemon disappears from the map.
func TestLeaveDrainsDaemon(t *testing.T) {
	f := startFleet(t, []float64{1, 1}, nil)
	r := f.router(t)
	names := []string{"vol00", "vol01", "vol02", "vol03"}
	for _, fs := range names {
		if err := r.CreateFileSet(fs); err != nil {
			t.Fatal(err)
		}
		if err := r.Create(fs, "/seed", sharedisk.Record{Size: 5}); err != nil {
			t.Fatal(err)
		}
	}
	// Make sure the leaver actually owns something.
	if _, err := f.auth.Assign("vol00", 1); err != nil {
		t.Fatal(err)
	}

	if _, err := f.auth.Leave(0); err == nil {
		t.Fatal("authority daemon allowed to leave")
	}
	if _, err := f.auth.Leave(42); err == nil || !strings.Contains(err.Error(), "unknown daemon") {
		t.Fatalf("leave of unknown daemon = %v", err)
	}

	epoch, err := f.auth.Leave(1)
	if err != nil {
		t.Fatal(err)
	}
	cm := f.auth.Map()
	if cm.Epoch != epoch {
		t.Fatalf("Leave returned epoch %d, map at %d", epoch, cm.Epoch)
	}
	if _, ok := cm.Daemon(1); ok {
		t.Fatal("left daemon still in the map")
	}
	for _, fs := range names {
		if owner, ok := cm.Owner(fs); !ok || owner.ID != 0 {
			t.Fatalf("%s owner after leave = %+v, %v; want daemon 0", fs, owner, ok)
		}
		if rec, err := r.Stat(fs, "/seed"); err != nil || rec.Size != 5 {
			t.Fatalf("Stat %s after leave = %+v, %v", fs, rec, err)
		}
	}
	if n := f.daemons[0].clus.Obs().Counter(CtrLeaves).Load(); n != 1 {
		t.Fatalf("leave counter = %d, want 1", n)
	}
}

// TestHeartbeatUnknownDaemonTellsJoin: the authority answers heartbeats
// from daemons it does not know — or knows under another journal dir — with
// the re-join signal, carried as a machine-readable code, not message text
// the member would have to parse. The join records the dir in the map.
func TestHeartbeatUnknownDaemonTellsJoin(t *testing.T) {
	f := startFleet(t, []float64{1, 1}, nil)
	if _, err := f.auth.Heartbeat(9, ""); err == nil ||
		wire.ErrorCode(err) != wire.CodeJoinFirst {
		t.Fatalf("heartbeat from unknown daemon = %v (code %q), want code %q",
			err, wire.ErrorCode(err), wire.CodeJoinFirst)
	}
	if _, err := f.auth.Heartbeat(1, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := f.auth.Heartbeat(1, "/tmp/j1"); wire.ErrorCode(err) != wire.CodeJoinFirst {
		t.Fatalf("heartbeat with an unrecorded journal dir = %v (code %q), want code %q",
			err, wire.ErrorCode(err), wire.CodeJoinFirst)
	}
	if _, err := f.auth.Join(1, f.daemons[1].addr, 1, "/tmp/j1"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.auth.Heartbeat(1, "/tmp/j1"); err != nil {
		t.Fatal(err)
	}
	if d, _ := f.auth.Map().Daemon(1); d.JournalDir != "/tmp/j1" {
		t.Fatalf("join did not record the journal dir in the map: %q", d.JournalDir)
	}
}

// TestPublishBoundedWithUnreachableDaemon is the satellite regression test
// for the publish stall: one wedged daemon (its dial hangs rather than
// failing fast) must not stall map commits beyond the publish wait cap.
func TestPublishBoundedWithUnreachableDaemon(t *testing.T) {
	hang := 400 * time.Millisecond
	auth, err := NewAuthority(AuthorityConfig{
		Daemons: []placement.DaemonInfo{
			{ID: 0, Addr: "dead-a:1", Speed: 1},
			{ID: 1, Addr: "dead-b:1", Speed: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	auth.dial = func(string, time.Duration, time.Duration) (peer, error) {
		time.Sleep(hang)
		return nil, errors.New("unreachable")
	}
	auth.publishWait = 50 * time.Millisecond
	auth.obs = obs.New() // no member hosts this authority
	start := time.Now()
	if _, err := auth.Assign("vol00", 0); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > hang {
		t.Fatalf("Assign blocked %s on unreachable daemons; publish wait cap is 50ms", elapsed)
	}
	// The abandoned publish goroutines finish on their own and are counted.
	time.Sleep(hang + 200*time.Millisecond)
	if n := auth.obs.Counter(CtrPublishStragglers).Load(); n != 2 {
		t.Fatalf("publish straggler counter = %d, want 2", n)
	}
}

// TestRebalanceCircuitBreaker is the satellite test for the dead-daemon
// rebalance path: the first failed dial of a daemon circuit-breaks every
// remaining move touching it — one timeout total, not one per file set —
// and the skipped file sets are named in the error.
func TestRebalanceCircuitBreaker(t *testing.T) {
	var dials atomic.Int64
	// Resume a map with every file set on the slow daemon 0; the mapper
	// wants nearly all of them on the 100x faster daemon 1, so a working
	// rebalance would run many moves — all with daemon 0 as donor.
	resume := &placement.ClusterMap{
		Epoch: 5,
		Daemons: []placement.DaemonInfo{
			{ID: 0, Addr: "dead:1", Speed: 1},
			{ID: 1, Addr: "alive:1", Speed: 100},
		},
		Assign: map[string]int{
			"vol00": 0, "vol01": 0, "vol02": 0, "vol03": 0, "vol04": 0, "vol05": 0,
		},
	}
	auth, err := NewAuthority(AuthorityConfig{Disk: journaled(t, resume)})
	if err != nil {
		t.Fatal(err)
	}
	auth.dial = func(string, time.Duration, time.Duration) (peer, error) {
		dials.Add(1)
		return nil, errors.New("connection refused")
	}
	before := auth.Epoch()
	dials.Store(0)
	epoch, err := auth.Rebalance()
	if err == nil || !strings.Contains(err.Error(), "rebalance skipped moves") {
		t.Fatalf("rebalance with a dead donor = %v, want skipped-moves error", err)
	}
	if epoch != before {
		t.Fatalf("failed rebalance moved the epoch %d -> %d", before, epoch)
	}
	// One donor dial attempt plus the final best-effort publish to both
	// daemons — NOT one dial per move.
	if n := dials.Load(); n > 3 {
		t.Fatalf("rebalance dialed %d times for a circuit-broken daemon, want <= 3", n)
	}
	// Every move after the first failure is named as skipped.
	skipped := 0
	for _, fs := range []string{"vol00", "vol01", "vol02", "vol03", "vol04", "vol05"} {
		if strings.Contains(err.Error(), fs) {
			skipped++
		}
	}
	if skipped < 4 {
		t.Fatalf("error names %d skipped file sets (%v), want most of the 6", skipped, err)
	}
}

// TestAssignDeadRecipientBounded: assigning a file set to an unreachable
// daemon fails in bounded time with the epoch and ownership intact (the
// dead-recipient half of the authority-vs-dead-daemon satellite).
func TestAssignDeadRecipientBounded(t *testing.T) {
	f := startFleet(t, []float64{1, 1}, nil)
	r := f.router(t)
	if err := r.CreateFileSet("vol00"); err != nil {
		t.Fatal(err)
	}
	if err := r.Create("vol00", "/a", sharedisk.Record{Size: 11}); err != nil {
		t.Fatal(err)
	}
	from := f.auth.Map().Assign["vol00"]
	to := 1 - from
	f.daemons[to].srv.Close()
	before := f.auth.Epoch()

	start := time.Now()
	_, err := f.auth.Assign("vol00", to)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("assign to a dead recipient succeeded")
	}
	// The donor's dial-recipient failure crossed the wire as a coded error
	// (the circuit-breaker signal), not as message text to be parsed.
	if wire.ErrorCode(err) != wire.CodeDialRecipient {
		t.Fatalf("assign to a dead recipient = %v (code %q), want code %q",
			err, wire.ErrorCode(err), wire.CodeDialRecipient)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("assign to a dead recipient took %s, want bounded well under the handoff timeout", elapsed)
	}
	if got := f.auth.Epoch(); got != before {
		t.Fatalf("failed assign moved the epoch %d -> %d", before, got)
	}
	if rec, err := r.Stat("vol00", "/a"); err != nil || rec.Size != 11 {
		t.Fatalf("donor lost the file set after the failed assign: %+v, %v", rec, err)
	}
}

// elasticDaemon is a testDaemon variant whose disk journals to real files,
// so a takeover can replay its tail after a "kill".
type elasticDaemon struct {
	id     int
	addr   string
	dir    string
	jnl    *journal.Journal
	disk   sharedisk.Disk
	clus   *live.Cluster
	srv    *wire.Server
	member *Member
}

func startElasticDaemon(t *testing.T, id int, journaled bool) *elasticDaemon {
	t.Helper()
	d := &elasticDaemon{id: id}
	if journaled {
		d.dir = t.TempDir()
		jnl, st, _, err := journal.Open(d.dir, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		d.jnl = jnl
		d.disk = sharedisk.NewDurable(st, jnl, 1<<20)
	} else {
		d.disk = sharedisk.NewStore(0)
	}
	cfg := live.DefaultConfig()
	cfg.Window = time.Hour
	cfg.OpCost = 0
	cfg.RetryBudget = 200 * time.Millisecond
	clus, err := live.NewCluster(cfg, d.disk, map[int]float64{0: 1})
	if err != nil {
		t.Fatal(err)
	}
	d.clus = clus
	d.srv = wire.NewServer(clus)
	addr, err := d.srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d.addr = addr
	return d
}

// deltaRounds drives fs through n write+sync rounds, each journaling one
// delta on the owning daemon — a create, an overwrite of /acked and, from
// the third round on, a remove — and returns the sizes the file set must
// hold afterwards, on top of have. tag keeps one call's paths apart from
// another's.
func deltaRounds(t *testing.T, r *Router, fs, tag string, n int, have map[string]int64, sync func() error) map[string]int64 {
	t.Helper()
	want := map[string]int64{}
	for p, size := range have {
		want[p] = size
	}
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("/%s%02d", tag, i)
		if err := r.Create(fs, p, sharedisk.Record{Size: int64(i)}); err != nil {
			t.Fatal(err)
		}
		want[p] = int64(i)
		if err := r.Update(fs, "/acked", sharedisk.Record{Size: int64(100 + i)}); err != nil {
			t.Fatal(err)
		}
		want["/acked"] = int64(100 + i)
		if i >= 2 {
			old := fmt.Sprintf("/%s%02d", tag, i-2)
			if err := r.Remove(fs, old); err != nil {
				t.Fatal(err)
			}
			delete(want, old)
		}
		if err := sync(); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// requireRecords checks, through the router, that fs holds exactly want.
func requireRecords(t *testing.T, r *Router, fs string, want map[string]int64) {
	t.Helper()
	paths, err := r.List(fs, "/")
	if err != nil || len(paths) != len(want) {
		t.Fatalf("%s lists %v (%v), want the %d paths of %v", fs, paths, err, len(want), want)
	}
	for p, size := range want {
		if rec, err := r.Stat(fs, p); err != nil || rec.Size != size {
			t.Fatalf("Stat %s %s = %+v, %v; want size %d", fs, p, rec, err, size)
		}
	}
}

// requireRecovers checks that the journal in dir replays fs to exactly
// want (nil: the file set must be gone).
func requireRecovers(t *testing.T, dir, fs string, want map[string]int64) {
	t.Helper()
	st, _, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	im, ok := st.Images()[fs]
	if want == nil {
		if ok {
			t.Fatalf("journal %s still replays %s: %+v", dir, fs, im)
		}
		return
	}
	got := map[string]int64{}
	for p, rec := range im.Records {
		got[p] = rec.Size
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("journal %s replays %s to %v, want %v", dir, fs, got, want)
	}
}

// TestFailoverReplaysJournal is the tentpole's in-process end: the
// authority's heartbeat detector declares a silent daemon dead, and the
// surviving daemon adopts its file sets only after replaying the victim's
// journal from shared disk — so writes the victim acknowledged and flushed
// survive its death.
func TestFailoverReplaysJournal(t *testing.T) {
	lease := 150 * time.Millisecond

	d0 := startElasticDaemon(t, 0, true)
	t.Cleanup(func() { d0.jnl.Close() })
	d1 := startElasticDaemon(t, 1, true)

	auth, err := NewAuthority(AuthorityConfig{
		Daemons: []placement.DaemonInfo{
			{ID: 0, Addr: d0.addr, Speed: 1},
			{ID: 1, Addr: d1.addr, Speed: 1},
		},
		FileSets: []string{"vol00", "vol01"},
		SelfID:   0,
		Lease:    lease,
	})
	if err != nil {
		t.Fatal(err)
	}
	auth.dial = testPeer
	auth.startupGrace = 2 * lease

	m0, err := NewMember(MemberConfig{
		ID: 0, Cluster: d0.clus, Disk: d0.disk, Authority: auth, Obs: d0.clus.Obs(),
		PollInterval: 20 * time.Millisecond,
	}, auth.Map())
	if err != nil {
		t.Fatal(err)
	}
	testSeams(m0)
	d0.member = m0
	d0.srv.SetFleet(m0)

	m1, err := NewMember(MemberConfig{
		ID: 1, Cluster: d1.clus, Disk: d1.disk,
		AuthorityAddr: d0.addr, Addr: d1.addr, JournalDir: d1.dir,
		PollInterval: 20 * time.Millisecond,
	}, auth.Map())
	if err != nil {
		t.Fatal(err)
	}
	testSeams(m1)
	d1.member = m1
	d1.srv.SetFleet(m1)

	m0.Start()
	m1.Start()
	t.Cleanup(func() {
		m0.Stop()
		d0.srv.Close()
		d0.clus.Stop()
	})

	r, err := NewRouter(RouterConfig{
		AuthorityAddr: d0.addr,
		Budget:        5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)

	// Put both file sets on the journaled daemon and write through the
	// router, then checkpoint so the writes are journaled on shared disk.
	for _, fs := range []string{"vol00", "vol01"} {
		if err := r.CreateFileSet(fs); err != nil {
			t.Fatal(err)
		}
		if _, err := auth.Assign(fs, 1); err != nil {
			t.Fatal(err)
		}
		if err := r.Create(fs, "/acked", sharedisk.Record{Size: 42}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d1.clus.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	// From here on every flush journals only the records it changed: the
	// victim's journal holds each file set as a create, an image-free run
	// of deltas — and the takeover must still move the complete image.
	want := map[string]map[string]int64{}
	for _, fs := range []string{"vol00", "vol01"} {
		want[fs] = deltaRounds(t, r, fs, "before", 12, nil, d1.clus.CheckpointAll)
	}

	// The victim was roster-seeded, so the map learns its journal directory
	// from the join its first heartbeat is answered with; wait for it (a
	// joining daemon would have registered it in the join request).
	hbDeadline := time.Now().Add(3 * time.Second)
	for d, _ := auth.Map().Daemon(1); d.JournalDir == ""; d, _ = auth.Map().Daemon(1) {
		if time.Now().After(hbDeadline) {
			t.Fatal("heartbeat never registered the victim's journal dir")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// kill -9 the victim: no leave, no drain — its heartbeats just stop.
	m1.Stop()
	d1.srv.Close()
	d1.clus.Stop()
	if err := d1.jnl.Close(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		cm := auth.Map()
		_, gone := cm.Daemon(1)
		if !gone && cm.Assign["vol00"] == 0 && cm.Assign["vol01"] == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("failover never completed: map %+v", cm)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The acked, flushed writes survived onto the new owner via replay —
	// every record of every delta — and into the new owner's own journal.
	for _, fs := range []string{"vol00", "vol01"} {
		requireRecords(t, r, fs, want[fs])
		requireRecovers(t, d0.dir, fs, want[fs])
	}
	ac := d0.clus.Obs().Counters()
	if ac[CtrFailovers] != 1 {
		t.Fatalf("failover counter = %d, want 1", ac[CtrFailovers])
	}
	if ac[CtrFailoverFileSets] != 2 {
		t.Fatalf("failover file-set counter = %d, want 2", ac[CtrFailoverFileSets])
	}
	mc := ac
	if mc[CtrTakeovers] != 2 {
		t.Fatalf("takeover counter = %d, want 2", mc[CtrTakeovers])
	}
	if mc[CtrTakeoverEmpty] != 0 {
		t.Fatalf("takeover-empty counter = %d, want 0 (the journal had both file sets)", mc[CtrTakeoverEmpty])
	}

	// The dead daemon restarts (fresh store, same identity): like anufsd, it
	// joins first and builds its member from the join reply's map.
	d1b := startElasticDaemon(t, 1, true)
	t.Cleanup(func() { d1b.jnl.Close() })
	cmJoin, err := auth.Join(1, d1b.addr, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	m1b, err := NewMember(MemberConfig{
		ID: 1, Cluster: d1b.clus, Disk: d1b.disk,
		AuthorityAddr: d0.addr, Addr: d1b.addr,
		PollInterval: 20 * time.Millisecond,
	}, cmJoin)
	if err != nil {
		t.Fatal(err)
	}
	testSeams(m1b)
	d1b.member = m1b
	d1b.srv.SetFleet(m1b)
	m1b.Start()
	t.Cleanup(func() {
		m1b.Stop()
		d1b.srv.Close()
		d1b.clus.Stop()
	})
	if _, ok := auth.Map().Daemon(1); !ok {
		t.Fatal("restarted daemon absent from the map after re-join")
	}
	// Its old file sets stayed with the takeover owner — a restart must not
	// silently reclaim state it no longer has.
	if got := auth.Map().Assign["vol00"]; got != 0 {
		t.Fatalf("vol00 snapped back to the restarted daemon (owner %d)", got)
	}

	// A live handoff after more deltas on the new owner: the recipient gets
	// — and journals — the complete image, the donor journals the drop.
	want["vol00"] = deltaRounds(t, r, "vol00", "after", 12, want["vol00"], d0.clus.CheckpointAll)
	if _, err := auth.Assign("vol00", 1); err != nil {
		t.Fatal(err)
	}
	requireRecords(t, r, "vol00", want["vol00"])
	requireRecovers(t, d1b.dir, "vol00", want["vol00"])
	requireRecovers(t, d0.dir, "vol00", nil)
	requireRecovers(t, d0.dir, "vol01", want["vol01"])
}

// TestRejoinAfterFalseDeath: a daemon partitioned long enough to be
// declared dead (and failed over) detects it on its next successful
// heartbeat — "unknown daemon" — and re-registers without restarting.
func TestRejoinAfterFalseDeath(t *testing.T) {
	lease := 150 * time.Millisecond
	var partitioned atomic.Bool
	flakyDial := func(addr string, _, _ time.Duration) (*wire.Client, error) {
		if partitioned.Load() {
			return nil, errors.New("partitioned")
		}
		return testDial(addr)
	}

	d0 := startElasticDaemon(t, 0, false)
	d1 := startElasticDaemon(t, 1, false)
	auth, err := NewAuthority(AuthorityConfig{
		Daemons: []placement.DaemonInfo{
			{ID: 0, Addr: d0.addr, Speed: 1},
			{ID: 1, Addr: d1.addr, Speed: 1},
		},
		FileSets: []string{"vol00"},
		SelfID:   0,
		Lease:    lease,
	})
	if err != nil {
		t.Fatal(err)
	}
	auth.dial = testPeer
	auth.startupGrace = 2 * lease
	m0, err := NewMember(MemberConfig{
		ID: 0, Cluster: d0.clus, Disk: d0.disk, Authority: auth, Obs: d0.clus.Obs(),
		PollInterval: 20 * time.Millisecond,
	}, auth.Map())
	if err != nil {
		t.Fatal(err)
	}
	testSeams(m0)
	d0.srv.SetFleet(m0)
	m1, err := NewMember(MemberConfig{
		ID: 1, Cluster: d1.clus, Disk: d1.disk, Obs: d1.clus.Obs(),
		AuthorityAddr: d0.addr, Addr: d1.addr,
		PollInterval: 20 * time.Millisecond,
	}, auth.Map())
	if err != nil {
		t.Fatal(err)
	}
	testSeams(m1)
	m1.dial = flakyDial
	d1.srv.SetFleet(m1)
	m0.Start()
	m1.Start()
	t.Cleanup(func() {
		m1.Stop()
		m0.Stop()
		d1.srv.Close()
		d0.srv.Close()
		d1.clus.Stop()
		d0.clus.Stop()
	})

	// Partition daemon 1 (heartbeats stop) until the authority reaps it.
	partitioned.Store(true)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := auth.Map().Daemon(1); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("partitioned daemon never declared dead")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Heal the partition: the next heartbeat gets the join-first code, the
	// member re-joins, and the map includes it again. Wait for the rejoin
	// counter as well — the authority commits the new map inside the Join
	// call, a beat before the member increments its counter.
	partitioned.Store(false)
	deadline = time.Now().Add(5 * time.Second)
	for {
		_, ok := auth.Map().Daemon(1)
		if ok && d1.clus.Obs().Counter(CtrRejoins).Load() >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healed daemon never re-joined: in map=%v rejoins=%d",
				ok, d1.clus.Obs().Counter(CtrRejoins).Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFenceAfterCutsOffPartitionedDaemon: a join-mode daemon that cannot
// reach any authority for FenceAfter stops admitting operations — it must
// not keep acknowledging writes the fleet will reassign elsewhere.
func TestFenceAfterCutsOffPartitionedDaemon(t *testing.T) {
	f := startFleet(t, []float64{1, 1}, func(m *Member) {
		if m.cfg.ID == 1 {
			m.cfg.Addr = "self:1" // heartbeat mode
			m.cfg.FenceAfter = 80 * time.Millisecond
			m.cfg.PollInterval = 10 * time.Millisecond
		}
	})
	r := f.router(t)
	if err := r.CreateFileSet("vol00"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.auth.Assign("vol00", 1); err != nil {
		t.Fatal(err)
	}
	// Healthy: the heartbeat loop keeps lastContact fresh, the gate admits.
	time.Sleep(150 * time.Millisecond)
	if release, err := f.daemons[1].member.Gate(wire.OpStat, "vol00"); err != nil {
		t.Fatalf("gate while healthy = %v", err)
	} else {
		release()
	}
	// Partition: the authority daemon disappears.
	f.daemons[0].srv.Close()
	deadline := time.Now().Add(3 * time.Second)
	for {
		_, err := f.daemons[1].member.Gate(wire.OpStat, "vol00")
		if err != nil && strings.Contains(err.Error(), "self-fenced") {
			break
		}
		if err == nil {
			// still admitting; wait for the fence to trip
		}
		if time.Now().After(deadline) {
			t.Fatalf("partitioned daemon never self-fenced: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// slowTakeoverFleet wraps a member's fleet dispatch, delaying takeovers —
// a stand-in for replaying a large journal before the reply.
type slowTakeoverFleet struct {
	*Member
	delay time.Duration
}

func (s *slowTakeoverFleet) Fleet(req wire.Request) wire.Response {
	if req.Op == wire.OpTakeover {
		time.Sleep(s.delay)
	}
	return s.Member.Fleet(req)
}

// TestTakeoverSurvivesSlowJournalReplay: the takeover call runs a full
// journal replay on the recipient before replying, so it must get a
// handoff-sized deadline — not the publish deadline its dialer starts
// with. A recipient slower than the publish deadline must still complete
// the failover instead of "timing out" into unplaced file sets while it
// adopts the candidate map server-side anyway.
func TestTakeoverSurvivesSlowJournalReplay(t *testing.T) {
	d0 := startElasticDaemon(t, 0, false)
	pubTimeout := 100 * time.Millisecond
	auth, err := NewAuthority(AuthorityConfig{
		Disk: journaled(t, &placement.ClusterMap{
			Epoch: 3,
			Daemons: []placement.DaemonInfo{
				{ID: 0, Addr: d0.addr, Speed: 1},
				{ID: 1, Addr: "127.0.0.1:1", Speed: 1}, // the dead victim
			},
			Assign: map[string]int{"vol00": 1, "vol01": 1},
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	auth.publishTimeout = pubTimeout // the real dialer connects takeovers with this
	m0, err := NewMember(MemberConfig{
		ID: 0, Cluster: d0.clus, Disk: d0.disk, Authority: auth, Obs: d0.clus.Obs(),
		PollInterval: 20 * time.Millisecond,
	}, auth.Map())
	if err != nil {
		t.Fatal(err)
	}
	testSeams(m0)
	d0.member = m0
	// The survivor answers takeovers 3x slower than the publish deadline.
	d0.srv.SetFleet(&slowTakeoverFleet{Member: m0, delay: 3 * pubTimeout})
	t.Cleanup(func() {
		d0.srv.Close()
		d0.clus.Stop()
	})

	auth.mu.Lock()
	auth.failoverLocked(1)
	auth.mu.Unlock()

	cm := auth.Map()
	if _, ok := cm.Daemon(1); ok {
		t.Fatal("victim still in the map after failover")
	}
	for _, fs := range []string{"vol00", "vol01"} {
		if got, ok := cm.Assign[fs]; !ok || got != 0 {
			t.Fatalf("%s owner after slow takeover = %d, %v; want daemon 0 (takeover timed out?)", fs, got, ok)
		}
	}
	ac := d0.clus.Obs().Counters()
	if ac[CtrFailoverUnplaced] != 0 {
		t.Fatalf("slow takeover left %d file sets unplaced", ac[CtrFailoverUnplaced])
	}
	if ac[CtrFailoverFileSets] != 2 {
		t.Fatalf("failover adopted %d file sets, want 2", ac[CtrFailoverFileSets])
	}
}

// refusingRecorder is a fleet handler that refuses every takeover after
// recording its epoch and journal dir — the shape of a recipient that
// adopted the candidate map server-side while the authority saw only a
// failure.
type refusingRecorder struct {
	mu     sync.Mutex
	epochs []uint64
	dirs   []string
}

func (r *refusingRecorder) Gate(op wire.Op, fileSet string) (func(), error) {
	return func() {}, nil
}

func (r *refusingRecorder) Fleet(req wire.Request) wire.Response {
	if req.Op == wire.OpTakeover {
		r.mu.Lock()
		r.epochs = append(r.epochs, req.Epoch)
		r.dirs = append(r.dirs, req.JournalDir)
		r.mu.Unlock()
	}
	return wire.Response{Err: "refused"}
}

// TestFailoverNeverReusesEpochs: every candidate map the authority sends —
// committed or abandoned — must consume a distinct epoch. Reusing an
// abandoned candidate's epoch for the committed victim-less map would
// strand any recipient that actually installed the candidate (e.g. the
// RPC timed out after the server-side adopt): it would ignore the
// committed equal-epoch map as not-newer and keep serving file sets the
// authority considers unplaced.
func TestFailoverNeverReusesEpochs(t *testing.T) {
	d0 := startElasticDaemon(t, 0, false)
	rec := &refusingRecorder{}
	d0.srv.SetFleet(rec)
	t.Cleanup(func() {
		d0.srv.Close()
		d0.clus.Stop()
	})
	auth, err := NewAuthority(AuthorityConfig{
		Disk: journaled(t, &placement.ClusterMap{
			Epoch: 5,
			Daemons: []placement.DaemonInfo{
				{ID: 0, Addr: d0.addr, Speed: 1},
				{ID: 1, Addr: "127.0.0.1:1", Speed: 1}, // the dead victim
			},
			Assign: map[string]int{"vol00": 1, "vol01": 1},
		}),
	})
	if err != nil {
		t.Fatal(err)
	}

	auth.mu.Lock()
	auth.failoverLocked(1)
	auth.mu.Unlock()

	rec.mu.Lock()
	attempts := append([]uint64(nil), rec.epochs...)
	rec.mu.Unlock()
	if len(attempts) == 0 {
		t.Fatal("no takeover was attempted")
	}
	final := auth.Map().Epoch
	for _, e := range attempts {
		if final <= e {
			t.Fatalf("committed map epoch %d does not supersede abandoned candidate epoch %d", final, e)
		}
	}
	seen := map[uint64]bool{}
	for _, e := range attempts {
		if seen[e] {
			t.Fatalf("candidate epoch %d issued twice: %v", e, attempts)
		}
		seen[e] = true
	}
}

// TestPromotedAuthorityReplaysJournalDir: a daemon's journal dir reaches a
// promoted standby through the persisted map, so a failover the promoted
// authority runs replays the dead daemon's journal — even though that
// daemon never heartbeat to it. A replay of "" would adopt its file sets
// empty and lose every write it acknowledged.
func TestPromotedAuthorityReplaysJournalDir(t *testing.T) {
	d0 := startElasticDaemon(t, 0, false)
	rec := &refusingRecorder{}
	d0.srv.SetFleet(rec)
	t.Cleanup(func() {
		d0.srv.Close()
		d0.clus.Stop()
	})
	shared := sharedisk.NewStore(0)
	primary, err := NewAuthority(AuthorityConfig{
		Daemons: []placement.DaemonInfo{{ID: 0, Addr: d0.addr, Speed: 1}},
		Disk:    shared,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := primary.Join(1, "127.0.0.1:1", 1, "/shared/d1"); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.Assign("vol00", 1); err != nil {
		t.Fatal(err)
	}

	// The standby replays the shipped map image and takes over as authority.
	promoted, err := NewAuthority(AuthorityConfig{Disk: shared})
	if err != nil {
		t.Fatal(err)
	}
	promoted.mu.Lock()
	promoted.failoverLocked(1)
	promoted.mu.Unlock()

	rec.mu.Lock()
	dirs := append([]string(nil), rec.dirs...)
	rec.mu.Unlock()
	if len(dirs) == 0 {
		t.Fatal("no takeover was attempted")
	}
	for _, dir := range dirs {
		if dir != "/shared/d1" {
			t.Fatalf("takeover replays journal %q, want %q", dir, "/shared/d1")
		}
	}
}

// TestHeartbeatNotBlockedByReconfiguration: heartbeats must stay
// responsive while a reconfiguration waits on a network RPC (failover,
// leave, rebalance) — otherwise leases lapse because the authority is busy
// and the detector cascades failovers onto healthy members. A rebalance is
// parked inside its first handoff; Heartbeat, Map and Volumes must still
// return. A regression deadlocks, and go test -timeout prints the stacks.
func TestHeartbeatNotBlockedByReconfiguration(t *testing.T) {
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	net := &fakeNet{answer: func(fakeCall) error {
		once.Do(func() { close(parked) })
		<-release
		return nil
	}}
	fileSets := map[string]int{}
	for i := 0; i < 8; i++ {
		fileSets[fmt.Sprintf("vol%02d", i)] = 0
	}
	auth := fakeAuthority(t, net, &placement.ClusterMap{
		Epoch: 3,
		Daemons: []placement.DaemonInfo{
			{ID: 0, Addr: "d0:1", Speed: 1},
			{ID: 1, Addr: "d1:1", Speed: 100, JournalDir: "/j1"},
		},
		Assign: fileSets,
	})
	before := auth.Epoch()
	done := make(chan error, 1)
	go func() {
		_, err := auth.Rebalance()
		done <- err
	}()
	<-parked

	if _, err := auth.Heartbeat(1, "/j1"); err != nil {
		t.Fatalf("heartbeat during reconfiguration = %v", err)
	}
	if _, err := auth.Heartbeat(1, "/elsewhere"); wire.ErrorCode(err) != wire.CodeJoinFirst {
		t.Fatalf("heartbeat with another journal dir during reconfiguration = %v, want code %q",
			err, wire.CodeJoinFirst)
	}
	if got := auth.Map().Epoch; got != before {
		t.Fatalf("map at epoch %d while the first handoff is parked, want %d", got, before)
	}
	if len(auth.Map().Volumes) == 0 {
		t.Fatal("no volumes during reconfiguration")
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := len(auth.Map().FileSetsOf(1)); got == 0 {
		t.Fatal("the released rebalance moved nothing")
	}
}

// TestResumeFromPersistedMap: the promoted-standby constructor path — a
// journaled image yields an authority whose first epoch is strictly above
// the resumed one plus PromotionEpochJump, that runs as the image's
// authority daemon at the address it was given, and whose every commit
// installs one image at the map's epoch.
func TestResumeFromPersistedMap(t *testing.T) {
	persisted := &placement.ClusterMap{
		Epoch: 37,
		Daemons: []placement.DaemonInfo{
			{ID: 0, Addr: "old-auth:1", Speed: 1},
			{ID: 1, Addr: "b:1", Speed: 2},
		},
		Assign:    map[string]int{"vol00": 0, "vol01": 1},
		Authority: 0,
	}
	disk := journaled(t, persisted)
	auth, err := NewAuthority(AuthorityConfig{Disk: disk, Addr: "new-auth:1"})
	if err != nil {
		t.Fatal(err)
	}
	auth.dial = noNetwork
	cm := auth.Map()
	if cm.Epoch <= persisted.Epoch+PromotionEpochJump {
		t.Fatalf("resumed epoch %d not above the floor %d", cm.Epoch, persisted.Epoch+PromotionEpochJump)
	}
	if d, ok := cm.AuthorityDaemon(); !ok || d.ID != 0 || d.Addr != "new-auth:1" {
		t.Fatalf("resumed map advertises authority %+v (%v), want daemon 0 at new-auth:1", d, ok)
	}
	if got := cm.Assign["vol01"]; got != 1 {
		t.Fatalf("resume lost an assignment: vol01 -> %d", got)
	}
	// The old map's daemons all survive the resume.
	if _, ok := cm.Daemon(1); !ok {
		t.Fatal("resume dropped daemon 1")
	}
	// The resumed map is on the disk already, at its epoch as the image
	// version (monotonic installs).
	im, err := disk.Load(MapFileSet)
	if err != nil {
		t.Fatal(err)
	}
	if im.Version != cm.Epoch {
		t.Fatalf("map image version %d != epoch %d", im.Version, cm.Epoch)
	}
	back, err := decodeMapImage(im)
	if err != nil {
		t.Fatal(err)
	}
	if back.Epoch != cm.Epoch || back.Authority != cm.Authority {
		t.Fatalf("map image round trip drifted: %+v", back)
	}
}

// TestMapImageCarriesJournalDir: the persisted map image is how a standby
// learns each daemon's journal dir, so the dir must survive
// encodeMapImage/decodeMapImage.
func TestMapImageCarriesJournalDir(t *testing.T) {
	cm := &placement.ClusterMap{
		Epoch: 9,
		Daemons: []placement.DaemonInfo{
			{ID: 0, Addr: "a:1", Speed: 1},
			{ID: 1, Addr: "b:1", Speed: 1, JournalDir: "/shared/d1"},
		},
		Assign: map[string]int{"vol00": 1},
	}
	im, err := encodeMapImage(cm)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeMapImage(im)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Daemons, cm.Daemons) {
		t.Fatalf("daemons after the map image round trip = %+v, want %+v", back.Daemons, cm.Daemons)
	}
}
