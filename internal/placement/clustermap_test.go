package placement

import (
	"reflect"
	"strings"
	"testing"

	"anufs/internal/volume"
)

func sampleMap() *ClusterMap {
	return &ClusterMap{
		Epoch: 3,
		Daemons: []DaemonInfo{
			{ID: 1, Addr: "127.0.0.1:7001", Speed: 2},
			{ID: 0, Addr: "127.0.0.1:7000", Speed: 1},
		},
		Assign: map[string]int{"vol00": 0, "vol01": 1, "vol02": 1},
	}
}

// tenantMap is sampleMap with two volumes besides the default one.
func tenantMap() *ClusterMap {
	m := sampleMap()
	m.Volumes = []volume.Info{
		{Name: "acme", Policy: volume.PolicyPack, Weight: 3, Quota: volume.Quota{MaxFileSets: 7, OpRate: 50}},
		volume.Default(),
		{Name: "zephyr", Policy: volume.PolicySpread, Weight: 1},
	}
	return m
}

func TestClusterMapRoundTrip(t *testing.T) {
	m := sampleMap()
	b, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeClusterMap(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 3 || len(got.Daemons) != 2 || len(got.Assign) != 3 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	// Encode sorts daemons by ID for deterministic bytes.
	if got.Daemons[0].ID != 0 || got.Daemons[1].ID != 1 {
		t.Fatalf("daemons not sorted: %+v", got.Daemons)
	}
	b2, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Fatalf("encoding not deterministic:\n%s\n%s", b, b2)
	}
}

// TestClusterMapVolumesRoundTrip: the volume list travels inside the map
// and comes back unchanged.
func TestClusterMapVolumesRoundTrip(t *testing.T) {
	m := tenantMap()
	b, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeClusterMap(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Volumes, m.Volumes) {
		t.Fatalf("volumes after the round trip = %+v, want %+v", got.Volumes, m.Volumes)
	}
}

// TestClusterMapJournalDirCompat: a daemon's journal dir is an optional
// key. A map encoded before daemons carried one decodes with empty dirs, a
// volatile daemon's record re-encodes byte-identically (omitempty drops the
// key), and a dir survives the round trip.
func TestClusterMapJournalDirCompat(t *testing.T) {
	old := `{"epoch":3,"daemons":[{"id":0,"addr":"127.0.0.1:7000","speed":1},` +
		`{"id":1,"addr":"127.0.0.1:7001","speed":2}],"assign":{"vol00":0,"vol01":1}}`
	m, err := DecodeClusterMap([]byte(old))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range m.Daemons {
		if d.JournalDir != "" {
			t.Fatalf("daemon %d decoded journal dir %q from a map without one", d.ID, d.JournalDir)
		}
	}
	b, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != old {
		t.Fatalf("volatile map re-encodes differently:\n%s\n%s", b, old)
	}
	m.Daemons[1].JournalDir = "/shared/d1"
	if b, err = m.Encode(); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeClusterMap(b)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := back.Daemon(1); d.JournalDir != "/shared/d1" {
		t.Fatalf("journal dir after round trip = %q, want /shared/d1", d.JournalDir)
	}
	if d, _ := back.Daemon(0); d.JournalDir != "" {
		t.Fatalf("volatile daemon gained journal dir %q", d.JournalDir)
	}
}

func TestClusterMapOwnerLookups(t *testing.T) {
	m := sampleMap()
	d, ok := m.Owner("vol01")
	if !ok || d.ID != 1 || d.Addr != "127.0.0.1:7001" {
		t.Fatalf("Owner(vol01) = %+v, %v", d, ok)
	}
	if _, ok := m.Owner("nope"); ok {
		t.Fatal("unplaced file set reported an owner")
	}
	if got := m.FileSetsOf(1); len(got) != 2 || got[0] != "vol01" || got[1] != "vol02" {
		t.Fatalf("FileSetsOf(1) = %v", got)
	}
	if _, ok := m.Daemon(9); ok {
		t.Fatal("unknown daemon resolved")
	}
}

func TestClusterMapValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*ClusterMap)
		want string
	}{
		{"zero epoch", func(m *ClusterMap) { m.Epoch = 0 }, "epoch"},
		{"no daemons", func(m *ClusterMap) { m.Daemons = nil }, "no daemons"},
		{"dup id", func(m *ClusterMap) { m.Daemons[1].ID = 1 }, "duplicate"},
		{"empty addr", func(m *ClusterMap) { m.Daemons[0].Addr = "" }, "no address"},
		{"zero speed", func(m *ClusterMap) { m.Daemons[0].Speed = 0 }, "speed"},
		{"nan speed", func(m *ClusterMap) { m.Daemons[0].Speed = nan() }, "speed"},
		{"unknown owner", func(m *ClusterMap) { m.Assign["vol00"] = 42 }, "unknown daemon"},
		{"duplicate volume", func(m *ClusterMap) { m.Volumes[2].Name = m.Volumes[1].Name }, "duplicate volume"},
		{"unsorted volumes", func(m *ClusterMap) { m.Volumes[0].Name = "zz" }, "sorted"},
		{"empty volume name", func(m *ClusterMap) { m.Volumes[0].Name = "" }, "no name"},
		{"unknown policy", func(m *ClusterMap) { m.Volumes[1].Policy = "sideways" }, "unknown policy"},
		{"empty policy", func(m *ClusterMap) { m.Volumes[1].Policy = "" }, "unknown policy"},
		{"negative weight", func(m *ClusterMap) { m.Volumes[1].Weight = -1 }, "negative"},
		{"nan weight", func(m *ClusterMap) { m.Volumes[1].Weight = nan() }, "negative"},
		{"negative file-set quota", func(m *ClusterMap) { m.Volumes[0].Quota.MaxFileSets = -1 }, "negative"},
		{"negative op rate", func(m *ClusterMap) { m.Volumes[0].Quota.OpRate = -1 }, "negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := tenantMap()
			tc.mut(m)
			err := m.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
			if _, err := m.Encode(); err == nil {
				t.Fatal("Encode accepted an invalid map")
			}
		})
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

func TestDecodeClusterMapRejectsGarbage(t *testing.T) {
	const daemons = `{"epoch":1,"daemons":[{"id":0,"addr":"a","speed":1}],`
	for _, b := range []string{"", "null", "{}", "[1,2]", `{"epoch":1}`, "\x00\x01",
		daemons + `"volumes":[{"name":"a","policy":"spread","weight":1}`,
		daemons + `"volumes":[{"name":"","policy":"spread"}]}`,
		daemons + `"volumes":[{"name":"a","policy":"spread","weight":-1}]}`,
		daemons + `"volumes":{"name":"a"}}`,
	} {
		if _, err := DecodeClusterMap([]byte(b)); err == nil {
			t.Fatalf("DecodeClusterMap(%q) accepted garbage", b)
		}
	}
}
