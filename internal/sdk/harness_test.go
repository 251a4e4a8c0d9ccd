package sdk

import (
	"testing"
	"time"

	"anufs/internal/fleet"
	"anufs/internal/live"
	"anufs/internal/obs"
	"anufs/internal/placement"
	"anufs/internal/sharedisk"
	"anufs/internal/wire"
)

// testDaemon is one in-process anufsd stand-in: its own disk, cluster,
// wire server, and fleet member — the same shape cmd/anufsd assembles.
type testDaemon struct {
	id     int
	addr   string
	disk   *sharedisk.Store
	clus   *live.Cluster
	srv    *wire.Server
	member *fleet.Member
}

// testFleet wires n daemons together; daemon 0 hosts the authority.
type testFleet struct {
	auth    *fleet.Authority
	daemons []*testDaemon
}

func testWireDial(addr string) (*wire.Client, error) {
	c, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	c.SetTimeout(5 * time.Second)
	return c, nil
}

// startFleet launches n single-server daemons over loopback, all at speed
// 1, with background tuning disabled — file sets only move when the
// authority moves them.
func startFleet(t testing.TB, n int) *testFleet {
	t.Helper()
	f := &testFleet{}
	infos := make([]placement.DaemonInfo, n)
	for i := 0; i < n; i++ {
		d := &testDaemon{id: i, disk: sharedisk.NewStore(0)}
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
		infos[i] = placement.DaemonInfo{ID: i, Addr: addr, Speed: 1}
		f.daemons = append(f.daemons, d)
	}
	auth, err := fleet.NewAuthority(fleet.AuthorityConfig{Daemons: infos})
	if err != nil {
		t.Fatal(err)
	}
	f.auth = auth
	for _, d := range f.daemons {
		mc := fleet.MemberConfig{
			ID:           d.id,
			Cluster:      d.clus,
			Disk:         d.disk,
			PollInterval: 20 * time.Millisecond,
		}
		if d.id == 0 {
			mc.Authority = auth
		} else {
			mc.AuthorityAddr = f.daemons[0].addr
		}
		m, err := fleet.NewMember(mc, auth.Map())
		if err != nil {
			t.Fatal(err)
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

// authority returns the fleet's authority wire address (daemon 0).
func (f *testFleet) authority() string { return f.daemons[0].addr }

// startGateway runs one gateway over the fleet and returns it with its
// listen address.
func startGateway(t testing.TB, f *testFleet, peers ...string) (*Gateway, string) {
	t.Helper()
	gw, err := NewGateway(GatewayConfig{
		Authority: f.authority(),
		Peers:     peers,
		Budget:    5 * time.Second,
		Obs:       obs.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	addr, err := gw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return gw, addr
}
