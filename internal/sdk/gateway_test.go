package sdk

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anufs/internal/fleet"
	"anufs/internal/obs"
	"anufs/internal/placement"
	"anufs/internal/sharedisk"
	"anufs/internal/wire"
)

// TestGatewayRoutesOps is the routed-op integration test: one plain
// wire.Client against a gateway exercises the full op surface —
// file-set data ops, mounts, global-path resolution, and lock sessions —
// across a 3-daemon fleet, without ever learning the cluster map.
func TestGatewayRoutesOps(t *testing.T) {
	f := startFleet(t, 3)
	_, addr := startGateway(t, f)
	c, err := testWireDial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Data ops route to whichever daemon owns each file set.
	for i := 0; i < 3; i++ {
		fs := fmt.Sprintf("vol%02d", i)
		if err := c.CreateFileSet(fs); err != nil {
			t.Fatal(err)
		}
		if err := c.Create(fs, "/a", sharedisk.Record{Size: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
		rec, err := c.Stat(fs, "/a")
		if err != nil || rec.Size != int64(i+1) {
			t.Fatalf("%s stat = %+v, %v", fs, rec, err)
		}
	}

	// Namespace: mounts broadcast so any daemon resolves them; global-path
	// ops resolve then route.
	if err := c.Mount("/mnt/v1", "vol01"); err != nil {
		t.Fatal(err)
	}
	fs, rel, err := c.Resolve("/mnt/v1/x")
	if err != nil || fs != "vol01" || rel != "/x" {
		t.Fatalf("resolve = %q %q %v", fs, rel, err)
	}
	if err := c.PCreate("/mnt/v1/x", sharedisk.Record{Size: 9}); err != nil {
		t.Fatal(err)
	}
	rec, err := c.PStat("/mnt/v1/x")
	if err != nil || rec.Size != 9 {
		t.Fatalf("pstat = %+v, %v", rec, err)
	}
	if err := c.PRemove("/mnt/v1/x"); err != nil {
		t.Fatal(err)
	}
	if err := c.Unmount("/mnt/v1"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Resolve("/mnt/v1/x"); err == nil {
		t.Fatal("resolve succeeded after unmount")
	}

	// Lock sessions: gateway-minted sessions map to per-daemon sessions,
	// and exclusive locks conflict across clients on the same gateway.
	s1, err := c.Register()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := testWireDial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	s2, err := c2.Register()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Lock(s1, "vol00", "/a", true); err != nil {
		t.Fatal(err)
	}
	if err := c2.Lock(s2, "vol00", "/a", true); err == nil || !strings.Contains(err.Error(), "conflict") {
		t.Fatalf("conflicting lock = %v, want a conflict", err)
	}
	if err := c.Renew(s1); err != nil {
		t.Fatal(err)
	}
	if err := c.Unlock(s1, "vol00", "/a"); err != nil {
		t.Fatal(err)
	}
	if err := c2.Lock(s2, "vol00", "/a", true); err != nil {
		t.Fatalf("lock after unlock: %v", err)
	}
	// A session the gateway never minted is rejected.
	if err := c.Lock(99999, "vol00", "/a", false); err == nil {
		t.Fatal("lock under an unknown session succeeded")
	}

	// Ops with nothing to route by are turned away with a clear error.
	if _, err := c.Stats(); err == nil || !strings.Contains(err.Error(), "no file set") {
		t.Fatalf("unroutable op = %v", err)
	}

}

// TestGatewayRoutesToFileSetCreatedAfterStart is the stale-map regression
// test: a gateway whose cached cluster map predates a file set's creation
// used to answer "not in the cluster map" from that cache until it was
// restarted; now the router refetches once before giving up.
func TestGatewayRoutesToFileSetCreatedAfterStart(t *testing.T) {
	f := startFleet(t, 2)
	gw, addr := startGateway(t, f)
	other, err := NewClient(Options{Authority: f.authority(), HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if err := other.CreateFileSet("late"); err != nil { // behind the gateway's back
		t.Fatal(err)
	}
	if _, placed := gw.Router().Map().Owner("late"); placed {
		t.Fatal("gateway's cached map already has the file set; the test proves nothing")
	}
	before := gw.cfg.Obs.Counter("fleet_router_refreshes").Load()
	c, err := testWireDial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Create("late", "/a", sharedisk.Record{Size: 7}); err != nil {
		t.Fatalf("create through a gateway started before the file set existed: %v", err)
	}
	if got := gw.cfg.Obs.Counter("fleet_router_refreshes").Load() - before; got != 1 {
		t.Fatalf("%d map refreshes for one stale-map miss, want 1", got)
	}
	// A file set that really does not exist still fails — after one refetch.
	if err := c.Create("never", "/a", sharedisk.Record{}); err == nil ||
		!strings.Contains(err.Error(), "not in the cluster map") {
		t.Fatalf("create in a nonexistent file set = %v", err)
	}
}

// TestTypedErrorsSurviveGateway: errors keep their typed identity through
// daemon → gateway → sdk.Pool. A create-fileset refused by a tenant quota
// used to reach a client behind anufsgw with its code stripped.
func TestTypedErrorsSurviveGateway(t *testing.T) {
	f := startFleet(t, 2)
	_, addr := startGateway(t, f)
	admin, err := testWireDial(f.authority())
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	if _, err := admin.VolumeCreate("acme"); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.VolumeSetQuota("acme", 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	pool := NewPool(addr, Options{PoolSize: 2, HealthInterval: -1})
	defer pool.Close()
	if _, err := pool.Call(wire.Request{Op: wire.OpCreateFileSet, FileSet: "acme/a"}); err != nil {
		t.Fatal(err)
	}
	_, err = pool.Call(wire.Request{Op: wire.OpCreateFileSet, FileSet: "acme/b"})
	if !wire.IsQuotaExceeded(err) {
		t.Fatalf("quota refusal through the gateway = %v (code %q), want quota-exceeded", err, wire.ErrorCode(err))
	}
}

// TestGatewayRefusesFleetInternalOps: the fleet's member-to-member and
// replication ops are never relayed for a client. The gateway used to
// forward any op it had no arm for to the owner of Request.FileSet, so a
// client-sent adopt or handoff naming a file set landed in a daemon.
func TestGatewayRefusesFleetInternalOps(t *testing.T) {
	f := startFleet(t, 2)
	_, addr := startGateway(t, f)
	pool := NewPool(addr, Options{PoolSize: 1, HealthInterval: -1})
	defer pool.Close()
	if _, err := pool.Call(wire.Request{Op: wire.OpCreateFileSet, FileSet: "vol00"}); err != nil {
		t.Fatal(err)
	}
	for _, op := range []wire.Op{wire.OpAdopt, wire.OpHandoff, wire.OpTakeover, wire.OpJoin, wire.OpLeave,
		wire.OpHeartbeat, wire.OpShip, wire.OpShipStatus} {
		resp, err := pool.Call(wire.Request{Op: op, FileSet: "vol00", Daemon: 1, Epoch: 99, Addr: "127.0.0.1:1"})
		if err == nil || resp.Err != string(errNotRoutable) {
			t.Errorf("%s through the gateway = %q (%v), want it refused as not routable", op, resp.Err, err)
		}
	}
}

// TestGatewayRoutesEveryOpByClass sends the gateway one request per row of
// wire.Ops, each naming a placed file set. What the gateway does with an op
// it has no arm of its own for follows from the op's class alone, so a new
// row is forwarded, broadcast or refused the day it is added — and a new
// class with no expectation below fails here.
func TestGatewayRoutesEveryOpByClass(t *testing.T) {
	f := startFleet(t, 2)
	gw, _ := startGateway(t, f)
	if resp := gw.route(wire.Request{Op: wire.OpCreateFileSet, FileSet: "vol00"}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	// The ClassLocal ops that mean something at a gateway; the rest are a
	// daemon's own data.
	answersItself := map[wire.Op]bool{wire.OpPing: true, wire.OpTrace: true, wire.OpTracePull: true,
		wire.OpRegister: true, wire.OpRenew: true, wire.OpResolve: true}
	for _, info := range wire.Ops {
		resp := gw.route(wire.Request{Op: info.Op, FileSet: "vol00", Path: "/a", Prefix: "/mnt/x", Daemon: 99})
		refused := resp.Err == string(errNotRoutable)
		var want bool
		switch info.Class {
		case wire.ClassOwner, wire.ClassAuthority, wire.ClassBroadcast, wire.ClassMap:
			want = false
		case wire.ClassMember, wire.ClassStandby:
			want = true
		case wire.ClassLocal:
			want = !answersItself[info.Op]
		default:
			t.Errorf("%s: class %d has no routing expectation", info.Op, info.Class)
			continue
		}
		if refused != want {
			t.Errorf("%s (class %d): refused as not routable = %v, want %v (%q)", info.Op, info.Class, refused, want, resp.Err)
		}
	}
	if resp := gw.route(wire.Request{Op: "bogus", FileSet: "vol00"}); resp.Err != string(errNotRoutable) {
		t.Errorf("an op outside the table answered %+v", resp)
	}
}

// TestWrongOwnerSurvivesGateway: when the gateway's router cannot converge
// (the owner rejects under an epoch no map source ever reaches), the
// client behind it gets a wrong-owner error carrying that epoch.
func TestWrongOwnerSurvivesGateway(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// One stub plays authority and daemon: it serves a map at epoch 5 that
	// assigns vol00 to itself, and rejects every other op as wrong-owner
	// under epoch 9.
	cm := &placement.ClusterMap{Epoch: 5,
		Daemons: []placement.DaemonInfo{{ID: 0, Addr: ln.Addr().String(), Speed: 1}},
		Assign:  map[string]int{"vol00": 0}}
	encoded, err := cm.Encode()
	if err != nil {
		t.Fatal(err)
	}
	stub := &wire.FrameServer{Handle: func(req wire.Request) wire.Response {
		if req.Op == wire.OpMap {
			return wire.Response{Map: encoded, Epoch: cm.Epoch}
		}
		return wire.Fail(wire.Response{}, &wire.WrongOwnerError{Epoch: 9})
	}}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				stub.Serve(conn, wire.MaxFramePayload)
			}()
		}
	}()
	gw, err := NewGateway(GatewayConfig{Authority: ln.Addr().String(), Budget: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	gwAddr, err := gw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(gwAddr, Options{PoolSize: 1, HealthInterval: -1})
	defer pool.Close()
	_, err = pool.Call(wire.Request{Op: wire.OpStat, FileSet: "vol00", Path: "/a"})
	if epoch, ok := wire.IsWrongOwner(err); !ok || epoch != 9 {
		t.Fatalf("unconverged route through the gateway = %v, want wrong-owner at epoch 9", err)
	}
}

// TestTwoGatewaysRebalanceUnderLoad is the scale-out acceptance test: two
// peer-linked gateways front a 3-daemon fleet while writers hammer both
// and the authority churns ownership (assigns and a rebalance routed
// through the gateways themselves). Every acked write must survive, both
// gateways must converge on the final epoch, and plain old clients keep
// working throughout.
func TestTwoGatewaysRebalanceUnderLoad(t *testing.T) {
	f := startFleet(t, 3)
	gw1, addr1 := startGateway(t, f)
	gw2, addr2 := startGateway(t, f, addr1)

	admin, err := testWireDial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	fileSets := []string{"vol00", "vol01", "vol02", "vol03"}
	for _, fs := range fileSets {
		if err := admin.CreateFileSet(fs); err != nil {
			t.Fatal(err)
		}
	}

	// Writers: half against each gateway, each recording the paths whose
	// creates were acked.
	const writers = 6
	var (
		wg    sync.WaitGroup
		stop  atomic.Bool
		acked [writers][]string
	)
	addrs := []string{addr1, addr2}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wc, err := testWireDial(addrs[w%2])
			if err != nil {
				return
			}
			defer wc.Close()
			fs := fileSets[w%len(fileSets)]
			for i := 0; !stop.Load(); i++ {
				path := fmt.Sprintf("/w%d-%04d", w, i)
				if wc.Create(fs, path, sharedisk.Record{Size: 1}) == nil {
					acked[w] = append(acked[w], fs+path)
				}
			}
		}(w)
	}

	// Ownership churn through the gateways: move every file set, then
	// rebalance, then move some back — each epoch bump invalidates the
	// gateways' shared map caches mid-write.
	for round := 0; round < 2; round++ {
		for i, fs := range fileSets {
			if _, err := admin.Assign(fs, (i+round+1)%3); err != nil {
				t.Fatal(err)
			}
			time.Sleep(30 * time.Millisecond)
		}
	}
	if _, err := admin.Rebalance(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	// Zero acked-write loss: every acked path stats back through both
	// gateways.
	total := 0
	for _, gwAddr := range addrs {
		rc, err := testWireDial(gwAddr)
		if err != nil {
			t.Fatal(err)
		}
		for w := range acked {
			for _, full := range acked[w] {
				fs, path, _ := strings.Cut(full, "/")
				if _, err := rc.Stat(fs, "/"+path); err != nil {
					rc.Close()
					t.Fatalf("acked write %s lost (via %s): %v", full, gwAddr, err)
				}
			}
		}
		rc.Close()
	}
	for w := range acked {
		total += len(acked[w])
	}
	if total == 0 {
		t.Fatal("no write was ever acked: the churn starved the writers")
	}
	t.Logf("%d acked writes survived the churn", total)

	// Epoch convergence: both gateways' cached maps reach the authority's
	// epoch, and a client asking either gateway sees it.
	want := f.auth.Epoch()
	for i, gw := range []*Gateway{gw1, gw2} {
		cm, err := gw.Router().Refresh()
		if err != nil {
			t.Fatalf("gateway %d refresh: %v", i+1, err)
		}
		if cm.Epoch != want {
			t.Fatalf("gateway %d epoch = %d, want %d", i+1, cm.Epoch, want)
		}
	}
	for _, gwAddr := range addrs {
		ec, err := testWireDial(gwAddr)
		if err != nil {
			t.Fatal(err)
		}
		epoch, err := ec.MapEpoch()
		ec.Close()
		if err != nil || epoch != want {
			t.Fatalf("map epoch via %s = %d, %v; want %d", gwAddr, epoch, err, want)
		}
	}
}

// A gateway whose peer holds a fresher map learns the epoch from the peer
// instead of the authority — the cache-sharing that makes the tier scale.
func TestGatewayPeersShareMaps(t *testing.T) {
	f := startFleet(t, 2)
	gw1, addr1 := startGateway(t, f)
	gw2, addr2 := startGateway(t, f, addr1)

	c, err := testWireDial(addr1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateFileSet("vol00"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Assign("vol00", 1); err != nil {
		t.Fatal(err)
	}
	// gw1 knows the new epoch (it routed the assign); gw2 refreshes
	// peer-first and should pick it up from gw1.
	want := f.auth.Epoch()
	if cm, err := gw1.Router().Refresh(); err != nil || cm.Epoch != want {
		t.Fatalf("gw1 epoch = %v, %v; want %d", cm, err, want)
	}
	// An authority op through gw2 (a no-op assign) answers with the new
	// epoch, which raises gw2's map floor to it.
	c2, err := testWireDial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if epoch, err := c2.Assign("vol00", 1); err != nil || epoch != want {
		t.Fatalf("no-op assign via gw2 = epoch %d, %v; want %d", epoch, err, want)
	}
	cm, err := gw2.Router().Refresh()
	if err != nil || cm.Epoch != want {
		t.Fatalf("gw2 epoch = %v, %v; want %d", cm, err, want)
	}
	if hits := gw2.cfg.Obs.Counter(fleet.CtrMapPeerHits).Load(); hits == 0 {
		t.Fatal("gw2 refreshed without ever hitting its peer's cache")
	}
}

// serveFake answers every request on ln with handle, until the test ends.
func serveFake(t *testing.T, ln net.Listener, handle func(wire.Request) wire.Response) {
	t.Helper()
	var (
		mu      sync.Mutex
		conns   []net.Conn
		serving sync.WaitGroup
	)
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			serving.Add(1)
			go func() {
				defer serving.Done()
				(&wire.FrameServer{Handle: handle}).Serve(conn, wire.MaxFramePayload)
				conn.Close()
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-accepted
		mu.Lock()
		for _, conn := range conns {
			conn.Close()
		}
		mu.Unlock()
		serving.Wait()
	})
}

// TestGatewayCloseWaitsForHandlers: Close returns only once every
// connection handler has exited. A handler held on a daemon call is not
// waited out: Close closes the router first, so the call fails at once,
// and by the time Close returns the handler has answered and counted its
// error.
func TestGatewayCloseWaitsForHandlers(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cm := &placement.ClusterMap{Epoch: 1,
		Daemons: []placement.DaemonInfo{{ID: 0, Addr: ln.Addr().String(), Speed: 1}},
		Assign:  map[string]int{"vol00": 0}}
	encoded, err := cm.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// The stub plays authority and daemon: it serves the map and holds the
	// one stat until the test ends.
	var arrived sync.Once
	held, release := make(chan struct{}), make(chan struct{})
	serveFake(t, ln, func(req wire.Request) wire.Response {
		if req.Op == wire.OpStat {
			arrived.Do(func() { close(held) })
			<-release
		}
		return wire.Response{Map: encoded, Epoch: cm.Epoch}
	})
	t.Cleanup(func() { close(release) })
	reg := obs.New()
	gw, err := NewGateway(GatewayConfig{Authority: ln.Addr().String(), Budget: time.Minute, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := gw.Listen("127.0.0.1:0")
	if err != nil {
		gw.Close()
		t.Fatal(err)
	}
	c, err := testWireDial(addr)
	if err != nil {
		gw.Close()
		t.Fatal(err)
	}
	defer c.Close()
	go func() { _, _ = c.Stat("vol00", "/a") }()
	<-held
	gw.Close()
	if n := reg.Counter("gw_errors").Load(); n != 1 {
		t.Fatalf("Close returned before the held request's handler answered (%d errors counted, want 1)", n)
	}
}

// TestGatewayAuthorityOpsFollowTheMap: after a standby promotion the map
// advertises the promoted authority, and the gateway's authority forwards
// go there — not to the address the gateway was started with.
func TestGatewayAuthorityOpsFollowTheMap(t *testing.T) {
	configured, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	promoted, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		configured.Close()
		t.Fatal(err)
	}
	cm := &placement.ClusterMap{
		Epoch: 5,
		Daemons: []placement.DaemonInfo{
			{ID: 0, Addr: configured.Addr().String(), Speed: 1},
			{ID: 1, Addr: promoted.Addr().String(), Speed: 1},
		},
		Authority: 1,
	}
	encoded, err := cm.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	volumeOps := map[string]int{}
	handler := func(name string) func(wire.Request) wire.Response {
		return func(req wire.Request) wire.Response {
			resp := wire.Response{Epoch: 5}
			switch req.Op {
			case wire.OpMap:
				resp.Map = encoded
			case wire.OpVolumeCreate:
				mu.Lock()
				volumeOps[name]++
				mu.Unlock()
				resp.Epoch = 6
			}
			return resp
		}
	}
	serveFake(t, configured, handler("configured"))
	serveFake(t, promoted, handler("promoted"))

	gw, err := NewGateway(GatewayConfig{Authority: configured.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	resp := gw.route(wire.Request{Op: wire.OpVolumeCreate, Volume: "acme"})
	if resp.Err != "" || resp.Epoch != 6 {
		t.Fatalf("volume create via the gateway = epoch %d, %q", resp.Epoch, resp.Err)
	}
	mu.Lock()
	defer mu.Unlock()
	if volumeOps["promoted"] != 1 || volumeOps["configured"] != 0 {
		t.Fatalf("volume creates reached %v, want only the map-advertised authority", volumeOps)
	}
}
