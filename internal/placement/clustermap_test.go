package placement

import (
	"strings"
	"testing"
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := sampleMap()
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
	for _, b := range []string{"", "null", "{}", "[1,2]", `{"epoch":1}`, "\x00\x01"} {
		if _, err := DecodeClusterMap([]byte(b)); err == nil {
			t.Fatalf("DecodeClusterMap(%q) accepted garbage", b)
		}
	}
}
