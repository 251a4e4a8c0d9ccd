package fleet

import (
	"strings"
	"testing"
	"time"

	"anufs/internal/live"
	"anufs/internal/namespace"
	"anufs/internal/placement"
	"anufs/internal/sharedisk"
	"anufs/internal/volume"
	"anufs/internal/wire"
)

// TestVolumeLifecycleOverWire: create/list/set-quota/set-policy/delete
// travel client → fleet dispatch → authority, and the guard rails hold
// (reserved names, unknown policies, deleting a volume with live data).
func TestVolumeLifecycleOverWire(t *testing.T) {
	f := startFleet(t, []float64{1, 1}, nil)
	c, err := wire.Dial(f.daemons[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	e0 := f.auth.Epoch()
	epoch, err := c.VolumeCreate("acme")
	if err != nil {
		t.Fatal(err)
	}
	if epoch <= e0 {
		t.Fatalf("volume create did not bump the epoch: %d -> %d", e0, epoch)
	}
	if _, err := c.VolumeCreate("__system"); err == nil {
		t.Fatal("reserved volume name accepted")
	}
	if _, err := c.VolumeSetPolicy("acme", "bogus"); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := c.VolumeSetPolicy("acme", volume.PolicyPack); err != nil {
		t.Fatal(err)
	}
	vols, version, err := c.VolumeList()
	if err != nil {
		t.Fatal(err)
	}
	if version < 3 {
		t.Fatalf("registry version %d after two mutations", version)
	}
	names := map[string]volume.Info{}
	for _, v := range vols {
		names[v.Name] = v
	}
	if _, ok := names[namespace.DefaultVolume]; !ok {
		t.Fatal("default volume missing from list")
	}
	if got := names["acme"].Policy; got != volume.PolicyPack {
		t.Fatalf("acme policy %q, want pack", got)
	}

	r := f.router(t)
	if err := r.CreateFileSet("acme/data"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.VolumeDelete("acme"); err == nil || !strings.Contains(err.Error(), "still owns") {
		t.Fatalf("deleting a volume with live file sets: %v", err)
	}
	// A file set in a volume nobody created is refused at placement.
	if err := r.CreateFileSet("ghost/data"); err == nil || !strings.Contains(err.Error(), "unknown volume") {
		t.Fatalf("file set in unknown volume: %v", err)
	}
	// Volume ops are authority-only: a non-authority daemon refuses rather
	// than answering from its replica.
	c1, err := wire.Dial(f.daemons[1].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, err := c1.VolumeCreate("elsewhere"); err == nil || !strings.Contains(err.Error(), "not the authority") {
		t.Fatalf("non-authority daemon accepted a volume op: %v", err)
	}
}

// TestFileSetQuotaTyped: a tenant at MaxFileSets gets the machine-readable
// quota-exceeded code, not a string to parse.
func TestFileSetQuotaTyped(t *testing.T) {
	f := startFleet(t, []float64{1, 1}, nil)
	c, err := wire.Dial(f.daemons[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.VolumeCreate("tenant"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.VolumeSetQuota("tenant", 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	r := f.router(t)
	if err := r.CreateFileSet("tenant/a"); err != nil {
		t.Fatal(err)
	}
	err = r.CreateFileSet("tenant/b")
	if err == nil {
		t.Fatal("second file set admitted over a MaxFileSets=1 quota")
	}
	if !wire.IsQuotaExceeded(err) {
		t.Fatalf("quota rejection not typed: %v (code %q)", err, wire.ErrorCode(err))
	}
	// Raising the quota unblocks the tenant.
	if _, err := c.VolumeSetQuota("tenant", 2, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.CreateFileSet("tenant/b"); err != nil {
		t.Fatalf("create after quota raise: %v", err)
	}
}

// TestOpRateQuotaTyped: the op-rate token bucket at the owning daemon's
// gate throttles a tenant with the typed code — including when the owner
// is not the authority daemon, which proves the registry replicated.
func TestOpRateQuotaTyped(t *testing.T) {
	f := startFleet(t, []float64{1, 1}, nil)
	c, err := wire.Dial(f.daemons[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.VolumeCreate("slow"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.VolumeSetQuota("slow", 0, 3, 0); err != nil { // 3 ops/s per daemon
		t.Fatal(err)
	}
	r := f.router(t)
	if err := r.CreateFileSet("slow/fs"); err != nil {
		t.Fatal(err)
	}
	// Wait for the owning member (possibly daemon 1) to install the quota'd
	// registry from the publish push or its poll loop.
	owner := f.auth.Map().Assign["slow/fs"]
	deadline := time.Now().Add(5 * time.Second)
	for {
		vols, _ := f.daemons[owner].member.Volumes()
		found := false
		for _, v := range vols {
			if v.Name == "slow" && v.Quota.OpRate == 3 {
				found = true
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon %d never installed the quota'd registry", owner)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Burst is ~3 tokens (one already spent by the gated create if the
	// registry landed first); hammering far past it must trip the bucket.
	var denied error
	for i := 0; i < 20 && denied == nil; i++ {
		if err := r.Create("slow/fs", "/p"+string(rune('a'+i)), sharedisk.Record{Size: 1}); err != nil {
			denied = err
		}
	}
	if denied == nil {
		t.Fatal("20 immediate ops never tripped a 3 ops/s bucket")
	}
	if !wire.IsQuotaExceeded(denied) {
		t.Fatalf("op-rate rejection not typed: %v (code %q)", denied, wire.ErrorCode(denied))
	}
}

// TestPackPolicyColocates: a pack-policy volume's file sets all land on
// one daemon; a spread volume's scatter across the fleet.
func TestPackPolicyColocates(t *testing.T) {
	f := startFleet(t, []float64{1, 1, 1}, nil)
	c, err := wire.Dial(f.daemons[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, name := range []string{"cold", "hot"} {
		if _, err := c.VolumeCreate(name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.VolumeSetPolicy("cold", volume.PolicyPack); err != nil {
		t.Fatal(err)
	}
	r := f.router(t)
	fileSets := []string{"f0", "f1", "f2", "f3", "f4", "f5"}
	for _, fs := range fileSets {
		if err := r.CreateFileSet("cold/" + fs); err != nil {
			t.Fatal(err)
		}
		if err := r.CreateFileSet("hot/" + fs); err != nil {
			t.Fatal(err)
		}
	}
	cm := f.auth.Map()
	coldOwners := map[int]bool{}
	hotOwners := map[int]bool{}
	for _, fs := range fileSets {
		coldOwners[cm.Assign["cold/"+fs]] = true
		hotOwners[cm.Assign["hot/"+fs]] = true
	}
	if len(coldOwners) != 1 {
		t.Fatalf("pack volume spread across %d daemons: %v", len(coldOwners), coldOwners)
	}
	// Deterministic for these names and equal speeds: the mapper scatters
	// six file sets over three daemons.
	if len(hotOwners) < 2 {
		t.Fatalf("spread volume packed onto %d daemon(s): %v", len(hotOwners), hotOwners)
	}
}

// TestQuotaSurvivesFailover is the acceptance scenario for volume
// durability: the registry is persisted through the shared disk (the same
// image machinery the log shipper replicates), the authority daemon dies
// without any graceful teardown, a standby promotes from the persisted
// map + registry images, and the tenant that was at its file-set quota is
// STILL capped — with the same machine-readable code.
func TestQuotaSurvivesFailover(t *testing.T) {
	shared := sharedisk.NewStore(0)

	// Boot a 2-daemon fleet whose authority persists both images into the
	// shared store — the in-process stand-in for journal + log shipping.
	var daemons []*testDaemon
	for i := 0; i < 2; i++ {
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
		daemons = append(daemons, d)
		t.Cleanup(func() { d.srv.Close(); d.clus.Stop() })
	}
	infos := []placement.DaemonInfo{
		{ID: 0, Addr: daemons[0].addr, Speed: 1},
		{ID: 1, Addr: daemons[1].addr, Speed: 1},
	}
	auth, err := NewAuthority(AuthorityConfig{
		Daemons: infos,
		Persist: func(cm *placement.ClusterMap) error {
			im, err := EncodeMapImage(cm)
			if err != nil {
				return err
			}
			return shared.Install(MapFileSet, im)
		},
		PersistVolumes: func(vols []volume.Info, version uint64) error {
			im, err := volume.EncodeImage(vols, version)
			if err != nil {
				return err
			}
			return shared.Install(volume.VolumesFileSet, im)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	auth.dial = testPeer
	for _, d := range daemons {
		mc := MemberConfig{ID: d.id, Cluster: d.clus, Disk: d.disk,
			DrainTimeout: 2 * time.Second, PollInterval: 20 * time.Millisecond, Dial: testDial}
		if d.id == 0 {
			mc.Authority = auth
		} else {
			mc.AuthorityAddr = daemons[0].addr
		}
		m, err := NewMember(mc, auth.Map())
		if err != nil {
			t.Fatal(err)
		}
		d.member = m
		d.srv.SetFleet(m)
		m.Start()
	}
	defer daemons[1].member.Stop()

	c0, err := wire.Dial(daemons[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c0.VolumeCreate("tenant"); err != nil {
		t.Fatal(err)
	}
	if _, err := c0.VolumeSetQuota("tenant", 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c0.Assign("tenant/a", -1); err != nil {
		t.Fatal(err)
	}
	if _, err := c0.Assign("tenant/b", -1); !wire.IsQuotaExceeded(err) {
		t.Fatalf("pre-failover: %v (code %q)", err, wire.ErrorCode(err))
	}
	c0.Close()

	// Kill the authority daemon: no drain, no handoff, no leave — the
	// in-process equivalent of SIGKILL. Its member is deliberately never
	// stopped gracefully.
	daemons[0].srv.Close()
	auth.Stop()

	// Promote daemon 1 from the shared disk's replicated images.
	mapIm, err := shared.Load(MapFileSet)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := DecodeMapImage(mapIm)
	if err != nil {
		t.Fatal(err)
	}
	volIm, err := shared.Load(volume.VolumesFileSet)
	if err != nil {
		t.Fatal(err)
	}
	vols, vver, err := volume.DecodeImage(volIm)
	if err != nil {
		t.Fatal(err)
	}
	if vver < 3 {
		t.Fatalf("replicated registry version %d, want every mutation captured", vver)
	}
	promoted, err := NewAuthority(AuthorityConfig{
		Resume:               cm,
		SelfID:               1,
		ResumeVolumes:        vols,
		ResumeVolumesVersion: vver,
	})
	if err != nil {
		t.Fatal(err)
	}
	promoted.dial = testPeer
	daemons[1].member.Stop()
	pm, err := NewMember(MemberConfig{ID: 1, Cluster: daemons[1].clus, Disk: daemons[1].disk,
		Authority: promoted, DrainTimeout: 2 * time.Second, Dial: testDial}, promoted.Map())
	if err != nil {
		t.Fatal(err)
	}
	daemons[1].srv.SetFleet(pm)
	pm.Start()
	defer pm.Stop()

	c1, err := wire.Dial(daemons[1].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	pvols, pver, err := c1.VolumeList()
	if err != nil {
		t.Fatal(err)
	}
	if pver != vver {
		t.Fatalf("promoted registry version %d, persisted %d", pver, vver)
	}
	found := false
	for _, v := range pvols {
		if v.Name == "tenant" && v.Quota.MaxFileSets == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("promoted authority lost the tenant quota: %+v", pvols)
	}
	// The tenant is still at quota (tenant/a survived in the resumed map),
	// and the denial is still machine-readable.
	if _, err := c1.Assign("tenant/c", -1); !wire.IsQuotaExceeded(err) {
		t.Fatalf("post-promotion: %v (code %q)", err, wire.ErrorCode(err))
	}
}
