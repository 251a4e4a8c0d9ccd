package fleet

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"anufs/internal/live"
	"anufs/internal/obs"
	"anufs/internal/placement"
	"anufs/internal/sharedisk"
	"anufs/internal/wire"
)

// testDaemon is one in-process anufsd stand-in: its own disk, cluster,
// wire server, and fleet member.
type testDaemon struct {
	id     int
	addr   string
	disk   *sharedisk.Store
	clus   *live.Cluster
	srv    *wire.Server
	member *Member
}

// testFleet wires n daemons together; daemon 0 hosts the authority.
type testFleet struct {
	auth    *Authority
	daemons []*testDaemon
}

func testDial(addr string) (*wire.Client, error) {
	c, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	c.SetTimeout(5 * time.Second)
	return c, nil
}

// testSeams points a member's dial seam at testDial and shortens its drain
// timeout; tests call it after NewMember, before Start.
func testSeams(m *Member) {
	m.dial = func(addr string, _, _ time.Duration) (*wire.Client, error) { return testDial(addr) }
	m.drainTimeout = 2 * time.Second
}

// testPeer is testDial behind the authority's peer seam.
func testPeer(addr string, _, _ time.Duration) (peer, error) {
	c, err := testDial(addr)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// noNetwork is a peer seam under which no daemon can be reached.
func noNetwork(string, time.Duration, time.Duration) (peer, error) {
	return nil, errors.New("no network")
}

// startFleet launches n single-server daemons over loopback with the given
// per-daemon speeds (len == n). Background tuning is disabled so file sets
// only move when the fleet moves them.
func startFleet(t testing.TB, speeds []float64, tweak func(m *Member)) *testFleet {
	t.Helper()
	f := &testFleet{}
	infos := make([]placement.DaemonInfo, len(speeds))
	for i, sp := range speeds {
		d := &testDaemon{id: i, disk: sharedisk.NewStore(0)}
		cfg := live.DefaultConfig()
		cfg.Window = time.Hour // no background tuning during tests
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
		infos[i] = placement.DaemonInfo{ID: i, Addr: addr, Speed: sp}
		f.daemons = append(f.daemons, d)
	}
	auth, err := NewAuthority(AuthorityConfig{Daemons: infos})
	if err != nil {
		t.Fatal(err)
	}
	auth.dial = testPeer
	f.auth = auth
	for _, d := range f.daemons {
		mc := MemberConfig{
			ID:           d.id,
			Cluster:      d.clus,
			Disk:         d.disk,
			PollInterval: 20 * time.Millisecond,
			Obs:          d.clus.Obs(),
		}
		if d.id == 0 {
			mc.Authority = auth
		} else {
			mc.AuthorityAddr = f.daemons[0].addr
		}
		m, err := NewMember(mc, auth.Map())
		if err != nil {
			t.Fatal(err)
		}
		testSeams(m)
		if tweak != nil {
			tweak(m)
		}
		d.member = m
		d.srv.SetFleet(m)
		m.Start()
	}
	t.Cleanup(func() {
		for _, d := range f.daemons {
			d.member.Stop()
			d.srv.Close()
			d.clus.Stop()
		}
	})
	return f
}

func (f *testFleet) router(t testing.TB) *Router {
	t.Helper()
	return f.routerOn(t, nil)
}

// routerOn is router, counting in reg.
func (f *testFleet) routerOn(t testing.TB, reg *obs.Registry) *Router {
	t.Helper()
	r, err := NewRouter(RouterConfig{
		AuthorityAddr: f.daemons[0].addr,
		Budget:        5 * time.Second,
		Obs:           reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// TestCreateRoutesToOwner: a created file set is placed by the authority
// and every routed op lands on its owning daemon.
func TestCreateRoutesToOwner(t *testing.T) {
	f := startFleet(t, []float64{1, 1}, nil)
	r := f.router(t)
	if err := r.CreateFileSet("vol00"); err != nil {
		t.Fatal(err)
	}
	if err := r.Create("vol00", "/a", sharedisk.Record{Size: 7}); err != nil {
		t.Fatal(err)
	}
	rec, err := r.Stat("vol00", "/a")
	if err != nil || rec.Size != 7 {
		t.Fatalf("Stat = %+v, %v", rec, err)
	}
	cm := f.auth.Map()
	owner, ok := cm.Owner("vol00")
	if !ok {
		t.Fatal("vol00 not in the map after CreateFileSet")
	}
	// The owner actually has it; the other daemon does not.
	for _, d := range f.daemons {
		has := false
		for _, fs := range d.disk.FileSets() {
			if fs == "vol00" {
				has = true
			}
		}
		if want := d.id == owner.ID; has != want {
			// The disk only sees it after a flush; check serving instead.
			d.member.mu.Lock()
			ready := d.member.ready["vol00"]
			d.member.mu.Unlock()
			if ready != want {
				t.Fatalf("daemon %d ready=%v, want %v", d.id, ready, want)
			}
		}
	}
}

// TestHandoffMovesFileSetLive: an assign to the other daemon runs a live
// handoff — data survives, the donor fences, the recipient serves, and the
// epoch advances.
func TestHandoffMovesFileSetLive(t *testing.T) {
	f := startFleet(t, []float64{1, 1}, nil)
	r := f.router(t)
	if err := r.CreateFileSet("vol00"); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/a", "/b", "/c"} {
		if err := r.Create("vol00", p, sharedisk.Record{Size: 1}); err != nil {
			t.Fatal(err)
		}
	}
	from := f.auth.Map().Assign["vol00"]
	to := 1 - from
	before := f.auth.Epoch()

	epoch, err := f.auth.Assign("vol00", to)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != before+1 {
		t.Fatalf("epoch after handoff = %d, want %d", epoch, before+1)
	}
	if got := f.auth.Map().Assign["vol00"]; got != to {
		t.Fatalf("owner after handoff = %d, want %d", got, to)
	}

	// Data intact through the router (which refetches transparently).
	for _, p := range []string{"/a", "/b", "/c"} {
		if rec, err := r.Stat("vol00", p); err != nil || rec.Size != 1 {
			t.Fatalf("Stat %s after handoff = %+v, %v", p, rec, err)
		}
	}
	// The donor fences: a direct (stale) client gets wrong-owner with the
	// new epoch.
	dc, err := testDial(f.daemons[from].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	_, err = dc.Stat("vol00", "/a")
	gotEpoch, ok := wire.IsWrongOwner(err)
	if !ok {
		t.Fatalf("donor served a fenced file set: err = %v", err)
	}
	if gotEpoch != epoch {
		t.Fatalf("wrong-owner epoch = %d, want %d", gotEpoch, epoch)
	}
	// The donor dropped its copy (journaled), the recipient has one.
	for _, fs := range f.daemons[from].disk.FileSets() {
		if fs == "vol00" {
			t.Fatal("donor still has vol00 on disk after handoff")
		}
	}
	if _, err := f.daemons[to].disk.Load("vol00"); err != nil {
		t.Fatalf("recipient disk missing vol00: %v", err)
	}
	if n := f.daemons[from].clus.Obs().Counter(CtrHandoffs).Load(); n != 1 {
		t.Fatalf("donor handoff counter = %d, want 1", n)
	}
	if n := f.daemons[to].clus.Obs().Counter(CtrAdopts).Load(); n != 1 {
		t.Fatalf("recipient adopt counter = %d, want 1", n)
	}
}

// TestHandoffFailureRollsBack: when the recipient is unreachable the donor
// rolls itself back, keeps serving, and the map keeps its epoch.
func TestHandoffFailureRollsBack(t *testing.T) {
	f := startFleet(t, []float64{1, 1}, nil)
	r := f.router(t)
	if err := r.CreateFileSet("vol00"); err != nil {
		t.Fatal(err)
	}
	if err := r.Create("vol00", "/a", sharedisk.Record{Size: 9}); err != nil {
		t.Fatal(err)
	}
	from := f.auth.Map().Assign["vol00"]
	to := 1 - from
	before := f.auth.Epoch()

	// Kill the recipient's server so the donor's transfer fails.
	f.daemons[to].srv.Close()

	if _, err := f.auth.Assign("vol00", to); err == nil {
		t.Fatal("handoff to a dead recipient succeeded")
	}
	if got := f.auth.Epoch(); got != before {
		t.Fatalf("epoch after failed handoff = %d, want %d", got, before)
	}
	if got := f.auth.Map().Assign["vol00"]; got != from {
		t.Fatalf("owner after failed handoff = %d, want %d", got, from)
	}
	// Donor still serves the file set (rolled back).
	if rec, err := r.Stat("vol00", "/a"); err != nil || rec.Size != 9 {
		t.Fatalf("Stat after failed handoff = %+v, %v", rec, err)
	}
	if n := f.daemons[from].clus.Obs().Counter(CtrHandoffFailures).Load(); n != 1 {
		t.Fatalf("donor handoff-failure counter = %d, want 1", n)
	}
}

// TestDrainTimeoutAbortsHandoff: a stuck in-flight operation makes the
// drain time out; the handoff fails and the donor keeps serving.
func TestDrainTimeoutAbortsHandoff(t *testing.T) {
	f := startFleet(t, []float64{1, 1}, func(m *Member) {
		m.drainTimeout = 100 * time.Millisecond
	})
	r := f.router(t)
	if err := r.CreateFileSet("vol00"); err != nil {
		t.Fatal(err)
	}
	from := f.auth.Map().Assign["vol00"]
	donor := f.daemons[from].member

	// Hold an admitted operation open across the handoff attempt.
	release, err := donor.Gate(wire.OpStat, "vol00")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.auth.Assign("vol00", 1-from); err == nil ||
		!strings.Contains(err.Error(), "drain") {
		t.Fatalf("handoff with a stuck op = %v, want drain timeout", err)
	}
	release()
	// Donor rolled back and still serves.
	if err := r.Create("vol00", "/x", sharedisk.Record{}); err != nil {
		t.Fatal(err)
	}
	// With the operation released the same move now succeeds.
	if _, err := f.auth.Assign("vol00", 1-from); err != nil {
		t.Fatal(err)
	}
}

// TestStaleRouterRetriesOncePerRefetch is the satellite regression test: a
// client holding a stale map retries a wrong-owner rejection at most once
// per refetch that reaches the rejecting epoch — never a retry storm when
// the map cannot advance.
func TestStaleRouterRetriesOncePerRefetch(t *testing.T) {
	f := startFleet(t, []float64{1, 1}, nil)
	r := f.router(t)
	if err := r.CreateFileSet("vol00"); err != nil {
		t.Fatal(err)
	}

	// Phase 1: the daemon keeps answering wrong-owner with an epoch the
	// authority never reaches. The attempt must run exactly once.
	cur := f.auth.Epoch()
	short, err := NewRouter(RouterConfig{
		AuthorityAddr: f.daemons[0].addr,
		Budget:        300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer short.Close()
	calls := 0
	err = short.Do("vol00", func(placement.DaemonInfo, Caller) error {
		calls++
		return &wire.WrongOwnerError{Epoch: cur + 5}
	})
	if err == nil || !strings.Contains(err.Error(), "never reached epoch") {
		t.Fatalf("Do against an unreachable epoch = %v", err)
	}
	if calls != 1 {
		t.Fatalf("op attempted %d times while the map was stuck, want exactly 1", calls)
	}

	// Phase 2: the epoch does advance (a real handoff) — one refetch, one
	// retry, success.
	from := f.auth.Map().Assign["vol00"]
	reg := obs.New()
	stale := f.routerOn(t, reg) // caches the pre-handoff map
	if _, err := f.auth.Assign("vol00", 1-from); err != nil {
		t.Fatal(err)
	}
	calls = 0
	err = stale.Do("vol00", func(_ placement.DaemonInfo, c Caller) error {
		calls++
		_, err := c.Call(wire.Request{Op: wire.OpStat, FileSet: "vol00", Path: "/nope"})
		if err != nil && strings.Contains(err.Error(), "no such path") {
			return nil // reached the owner; the miss is expected
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("op attempted %d times across one refetch, want exactly 2 (reject + retry)", calls)
	}
	if n := reg.Counter("fleet_router_wrong_owner").Load(); n != 1 {
		t.Fatalf("wrong-owner counter = %d, want 1", n)
	}
}

// TestRebalanceBySpeed: with lopsided speeds, rebalance moves file sets
// toward the fast daemon, one epoch per move, and all data survives.
func TestRebalanceBySpeed(t *testing.T) {
	f := startFleet(t, []float64{1, 4}, nil)
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
	// Pin everything to the slow daemon, then let rebalance undo it.
	for _, fs := range names {
		if _, err := f.auth.Assign(fs, 0); err != nil {
			t.Fatal(err)
		}
	}
	epoch, err := f.auth.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	cm := f.auth.Map()
	if cm.Epoch != epoch {
		t.Fatalf("Rebalance returned epoch %d, map at %d", epoch, cm.Epoch)
	}
	fast := len(cm.FileSetsOf(1))
	if fast < len(names)/2 {
		t.Fatalf("fast daemon owns %d of %d file sets after rebalance", fast, len(names))
	}
	for _, fs := range names {
		if rec, err := r.Stat(fs, "/seed"); err != nil || rec.Size != 3 {
			t.Fatalf("Stat %s after rebalance = %+v, %v", fs, rec, err)
		}
	}
}

// TestJoinModeMemberConvergesByPoll: a member that missed the push (its
// server was not reachable at publish time) converges via its poll loop.
func TestJoinModeMemberConvergesByPoll(t *testing.T) {
	f := startFleet(t, []float64{1, 1}, nil)
	r := f.router(t)
	if err := r.CreateFileSet("vol00"); err != nil {
		t.Fatal(err)
	}
	want := f.auth.Epoch()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if f.daemons[1].member.CurrentMap().Epoch >= want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("joining member stuck at epoch %d, want %d",
				f.daemons[1].member.CurrentMap().Epoch, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestUnplacedFileSetRejected: operations on a file set absent from the
// map fail with a routable message, not a hang.
func TestUnplacedFileSetRejected(t *testing.T) {
	f := startFleet(t, []float64{1, 1}, nil)
	c, err := testDial(f.daemons[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Stat("ghost", "/a"); err == nil ||
		!strings.Contains(err.Error(), unplacedMsg) {
		t.Fatalf("op on unplaced file set = %v", err)
	}
}

// TestRouterSyncFansOut: Sync checkpoints every daemon.
func TestRouterSyncFansOut(t *testing.T) {
	f := startFleet(t, []float64{1, 1}, nil)
	r := f.router(t)
	if err := r.CreateFileSet("vol00"); err != nil {
		t.Fatal(err)
	}
	if err := r.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestAdoptIdempotentRetry: re-sending a completed adopt (the donor's
// retry after a lost ack) is accepted without reinstalling.
func TestAdoptIdempotentRetry(t *testing.T) {
	f := startFleet(t, []float64{1, 1}, nil)
	r := f.router(t)
	if err := r.CreateFileSet("vol00"); err != nil {
		t.Fatal(err)
	}
	from := f.auth.Map().Assign["vol00"]
	to := 1 - from
	if _, err := f.auth.Assign("vol00", to); err != nil {
		t.Fatal(err)
	}
	cm := f.auth.Map()
	encoded, err := cm.Encode()
	if err != nil {
		t.Fatal(err)
	}
	adopts := f.daemons[to].clus.Obs().Counter(CtrAdopts).Load()
	c, err := testDial(f.daemons[to].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Adopt(cm.Epoch, "vol00", nil, encoded); err != nil {
		t.Fatalf("idempotent adopt retry = %v", err)
	}
	if n := f.daemons[to].clus.Obs().Counter(CtrAdopts).Load(); n != adopts {
		t.Fatalf("retry re-ran the adopt: counter %d -> %d", adopts, n)
	}
}

// TestMemberServesEveryFleetClassOp: the wire server hands every op of a
// fleet class (wire.Class.Fleet) to Member.Fleet, so a row added to
// wire.Ops under one of those classes without an arm here would die in the
// default arm at runtime — it fails this test instead.
func TestMemberServesEveryFleetClassOp(t *testing.T) {
	f := startFleet(t, []float64{1}, nil)
	m := f.daemons[0].member
	for _, info := range wire.Ops {
		if !info.Class.Fleet() {
			continue
		}
		// Daemon 99 is nobody: the membership ops answer their own errors.
		resp := m.Fleet(wire.Request{Op: info.Op, Daemon: 99})
		if strings.Contains(resp.Err, "unknown fleet op") {
			t.Errorf("%s (class %d): %s", info.Op, info.Class, resp.Err)
		}
	}
	if resp := m.Fleet(wire.Request{Op: wire.OpStat}); !strings.Contains(resp.Err, "unknown fleet op") {
		t.Errorf("an op of no fleet class answered %+v", resp)
	}

	// A join-mode member refuses exactly the ops the authority serves —
	// every ClassAuthority op plus join, leave and heartbeat — with one
	// error, and serves the rest itself.
	joiner := startFleet(t, []float64{1, 1}, nil).daemons[1].member
	refused := 0
	for _, info := range wire.Ops {
		if !info.Class.Fleet() {
			continue
		}
		resp := joiner.Fleet(wire.Request{Op: info.Op, Daemon: 99})
		want := info.Class == wire.ClassAuthority ||
			info.Op == wire.OpJoin || info.Op == wire.OpLeave || info.Op == wire.OpHeartbeat
		got := strings.Contains(resp.Err, "fleet: daemon 1 is not the authority")
		if got != want {
			t.Errorf("join-mode member on %s: %q (not-the-authority wanted: %v)", info.Op, resp.Err, want)
		}
		if got {
			refused++
		}
	}
	if refused != 10 {
		t.Errorf("join-mode member refused %d ops as not the authority, want 10", refused)
	}
}

// Two routers on one registry sum into the same fleet_* series, building one
// leaves nothing behind in the counter table, and the per-daemon count of a
// routed op — its handle resolved once — formats no name and allocates
// nothing.
func TestRoutersOnOneRegistrySum(t *testing.T) {
	f := startFleet(t, []float64{1}, nil)
	reg := obs.New()
	a, b := f.routerOn(t, reg), f.routerOn(t, reg)
	if err := a.CreateFileSet("vol00"); err != nil {
		t.Fatal(err)
	}
	base := reg.Counter("fleet_routed_daemon_0").Load()
	for i, r := range []*Router{a, b, b} {
		if err := r.Create("vol00", fmt.Sprintf("/f%d", i), sharedisk.Record{Size: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("fleet_routed_daemon_0").Load() - base; got != 3 {
		t.Fatalf("fleet_routed_daemon_0 rose by %d over three creates through two routers, want 3", got)
	}
	before := len(reg.Counters())
	for i := 0; i < 100; i++ {
		f.routerOn(t, reg).Close()
	}
	if after := len(reg.Counters()); after != before {
		t.Fatalf("100 routers built and closed grew the counter table from %d to %d names", before, after)
	}
	if n := testing.AllocsPerRun(100, func() { a.countRouted(0) }); n != 0 {
		t.Fatalf("countRouted: %v allocs/op, want 0", n)
	}
}
