package fleet

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"anufs/internal/journal"
	"anufs/internal/obs"
	"anufs/internal/placement"
	"anufs/internal/sharedisk"
	"anufs/internal/volume"
	"anufs/internal/wire"
)

// TestAuthorityImageRoundTrip: one image of one record carries the map,
// volumes included, at the map's epoch, and gives it back unchanged.
func TestAuthorityImageRoundTrip(t *testing.T) {
	cm := fakeFleet(2, 1)
	cm.Volumes = []volume.Info{
		{Name: "default", Policy: volume.PolicySpread, Weight: 1},
		{Name: "tenantA", Policy: volume.PolicyPack, Weight: 3, Quota: volume.Quota{MaxFileSets: 7, OpRate: 50}},
	}
	im, err := encodeMapImage(cm)
	if err != nil {
		t.Fatal(err)
	}
	if im.Version != cm.Epoch || len(im.Records) != 1 {
		t.Fatalf("image version = %d with %d records, want the map epoch %d with one", im.Version, len(im.Records), cm.Epoch)
	}
	back, err := decodeMapImage(im)
	if err != nil {
		t.Fatal(err)
	}
	if back.Epoch != cm.Epoch || len(back.Assign) != len(cm.Assign) {
		t.Fatalf("map round trip drifted: %+v", back)
	}
	if !reflect.DeepEqual(back.Volumes, cm.Volumes) {
		t.Fatalf("volumes round trip = %+v, want %+v", back.Volumes, cm.Volumes)
	}
}

// TestResumeRefusesBadImages: NewAuthority refuses to resume from an image
// it could only misread, rather than seeding a fresh map whose epochs the
// fleet has already seen.
func TestResumeRefusesBadImages(t *testing.T) {
	roster := []placement.DaemonInfo{{ID: 0, Addr: fakeAddr(0), Speed: 1}}
	otherAuthority := fakeFleet(2, 0)
	otherAuthority.Authority = 1
	missingAuthority := fakeFleet(2, 0)
	missingAuthority.Authority = 7
	noMap := journaled(t, fakeFleet(2, 0))
	im, err := noMap.Load(MapFileSet)
	if err != nil {
		t.Fatal(err)
	}
	delete(im.Records, mapRecordKey)
	im.Version++
	if err := noMap.Install(MapFileSet, im); err != nil {
		t.Fatal(err)
	}
	twoRecords := journaled(t, fakeFleet(2, 0))
	if im, err = twoRecords.Load(MapFileSet); err != nil {
		t.Fatal(err)
	}
	im.Records["volumes"] = sharedisk.Record{Owner: `{"version":2,"volumes":[]}`}
	im.Version++
	if err := twoRecords.Install(MapFileSet, im); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  AuthorityConfig
		want string
	}{
		{"map names another authority, given a roster",
			AuthorityConfig{Daemons: roster, Disk: journaled(t, otherAuthority)}, "names daemon 1 as its authority"},
		{"authority absent from its own map",
			AuthorityConfig{Disk: journaled(t, missingAuthority)}, "does not contain its authority daemon 7"},
		{"no map record",
			AuthorityConfig{Disk: noMap}, "holds 0 records"},
		{"a second record, as an earlier layout kept the volumes",
			AuthorityConfig{Disk: twoRecords}, "holds 2 records"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := NewAuthority(tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("NewAuthority = %v, %v; want an error naming %q", a, err, tc.want)
			}
		})
	}
}

// TestQuotaSurvivesAuthorityRestart: an authority restarted on its own
// journal resumes the volumes with the map. A volume edit is one journaled
// install, a stale image cannot roll the disk back, and after the journal
// is recovered a second NewAuthority with the same roster still caps the
// tenant at its quota, above every epoch the first one committed.
func TestQuotaSurvivesAuthorityRestart(t *testing.T) {
	dir := t.TempDir()
	roster := []placement.DaemonInfo{{ID: 0, Addr: fakeAddr(0), Speed: 1}}
	open := func(reg *obs.Registry) (*journal.Journal, *sharedisk.Durable) {
		t.Helper()
		j, st, _, err := journal.Open(dir, journal.Options{Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		return j, sharedisk.NewDurable(st, j, 0)
	}
	reg := obs.New()
	j, disk := open(reg)
	first, err := NewAuthority(AuthorityConfig{Daemons: roster, Disk: disk})
	if err != nil {
		t.Fatal(err)
	}
	first.dial = noNetwork
	if _, err := first.VolumeCreate("tenant"); err != nil {
		t.Fatal(err)
	}
	records := reg.Counter(journal.CtrRecords).Load()
	if _, err := first.VolumeSetQuota("tenant", volume.Quota{MaxFileSets: 1}, 0); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter(journal.CtrRecords).Load() - records; n != 1 {
		t.Fatalf("a volume edit journaled %d records, want 1", n)
	}
	if _, err := first.Assign("tenant/a", -1); err != nil {
		t.Fatal(err)
	}
	last := first.Epoch()
	want := first.Map().Volumes
	stale, err := encodeMapImage(first.Map())
	if err != nil {
		t.Fatal(err)
	}
	stale.Version = last - 1
	if err := disk.Install(MapFileSet, stale); err == nil {
		t.Fatal("a stale authority image installed over a newer one")
	}
	first.Stop()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j, disk = open(nil)
	defer j.Close()
	second, err := NewAuthority(AuthorityConfig{Daemons: roster, Disk: disk})
	if err != nil {
		t.Fatal(err)
	}
	second.dial = noNetwork
	if got := second.Epoch(); got <= last+PromotionEpochJump {
		t.Fatalf("restarted authority at epoch %d, not above the floor %d", got, last+PromotionEpochJump)
	}
	vols := second.Map().Volumes
	if !slices.Equal(vols, want) {
		t.Fatalf("restarted authority holds volumes %+v, want %+v", vols, want)
	}
	found := false
	for _, v := range vols {
		found = found || v.Name == "tenant" && v.Quota.MaxFileSets == 1
	}
	if !found {
		t.Fatalf("restarted authority lost the tenant quota: %+v", vols)
	}
	if _, err := second.Assign("tenant/b", -1); !wire.IsQuotaExceeded(err) {
		t.Fatalf("assign over quota after the restart = %v, want quota-exceeded", err)
	}
}

// TestConcurrentVolumeEditsInstallInOrder: volume edits commit under the
// reconfiguration lock, one image each, so concurrent edits reach the disk
// in epoch order — none is refused as a downgrade — and the image on disk
// ends with the last volume list.
func TestConcurrentVolumeEditsInstallInOrder(t *testing.T) {
	disk := sharedisk.NewStore(0)
	a, err := NewAuthority(AuthorityConfig{
		Daemons: []placement.DaemonInfo{{ID: 0, Addr: fakeAddr(0), Speed: 1}},
		Disk:    disk,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.dial = noNetwork
	a.obs = obs.New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := a.VolumeCreate(fmt.Sprintf("t%d-%d", w, i)); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := a.obs.Counter(CtrPersistFailures).Load(); n != 0 {
		t.Fatalf("%d of 40 concurrent volume edits failed to install", n)
	}
	im, err := disk.Load(MapFileSet)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := decodeMapImage(im)
	if err != nil {
		t.Fatal(err)
	}
	if want := a.Map(); cm.Epoch != want.Epoch || len(cm.Volumes) != 41 || !slices.Equal(cm.Volumes, want.Volumes) {
		t.Fatalf("disk holds epoch %d with %d volumes; authority at epoch %d with %d",
			cm.Epoch, len(cm.Volumes), want.Epoch, len(want.Volumes))
	}
}

// FuzzDecodeAuthorityImage: the image is read back from the recovered
// journal at every authority start, so no record contents may panic the
// decode. An image that decodes re-encodes to the same epoch and volumes.
// An empty record string stands for a missing record.
func FuzzDecodeAuthorityImage(f *testing.F) {
	for _, cm := range []*placement.ClusterMap{fakeFleet(1, 0), fakeFleet(3, 2)} {
		cm.Volumes = []volume.Info{volume.Default(), {Name: "tenant", Policy: volume.PolicyPack, Weight: 2,
			Quota: volume.Quota{MaxFileSets: 1, OpRate: 5}}}
		im, err := encodeMapImage(cm)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(im.Records[mapRecordKey].Owner)
	}
	f.Add(`{"epoch":1,"daemons":[{"id":0,"addr":"a","speed":1}],"assign":{},"authority":3}`)
	f.Add(`{"epoch":1,"daemons":[{"id":0,"addr":"a","speed":1}],"assign":{},"volumes":[{"name":"t","policy":"pack"},{"name":"t","policy":"pack"}]}`)
	f.Add(`{"epoch":2,"daemons":[{"id":0,"addr":"a","speed":1}],"assign":{"t/a":0},"volumes":[{"name":"t","policy":"spread","weight":-1}]}`)
	f.Add("")
	f.Fuzz(func(t *testing.T, mapRec string) {
		im := sharedisk.Image{Records: map[string]sharedisk.Record{}}
		if mapRec != "" {
			im.Records[mapRecordKey] = sharedisk.Record{Owner: mapRec}
		}
		cm, err := decodeMapImage(im)
		if err != nil {
			return
		}
		again, err := encodeMapImage(cm)
		if err != nil {
			t.Fatalf("a decoded image does not re-encode: %v", err)
		}
		cm2, err := decodeMapImage(again)
		if err != nil {
			t.Fatalf("a re-encoded image does not decode: %v", err)
		}
		if again.Version != cm.Epoch || cm2.Epoch != cm.Epoch || !slices.Equal(cm2.Volumes, cm.Volumes) {
			t.Fatalf("round trip moved epoch %d -> %d (image version %d), volumes %+v -> %+v",
				cm.Epoch, cm2.Epoch, again.Version, cm.Volumes, cm2.Volumes)
		}
	})
}
