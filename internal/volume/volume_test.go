package volume

import (
	"testing"

	"anufs/internal/namespace"
)

func TestRegistryLifecycle(t *testing.T) {
	r := NewRegistry()
	if _, ok := r.Get(namespace.DefaultVolume); !ok {
		t.Fatal("default volume missing from fresh registry")
	}
	v0 := r.Version()
	ver, err := r.Create("tenantA")
	if err != nil || ver <= v0 {
		t.Fatalf("Create: ver=%d err=%v", ver, err)
	}
	if _, err := r.Create("tenantA"); err == nil {
		t.Fatal("duplicate Create accepted")
	}
	if _, err := r.Create("bad/name"); err == nil {
		t.Fatal("separator in volume name accepted")
	}
	if _, err := r.Create("__sys"); err == nil {
		t.Fatal("reserved volume name accepted")
	}
	if _, err := r.SetQuota("tenantA", Quota{MaxFileSets: 2, OpRate: 100}, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := r.SetPolicy("tenantA", PolicyPack); err != nil {
		t.Fatal(err)
	}
	if _, err := r.SetPolicy("tenantA", "sideways"); err == nil {
		t.Fatal("bogus policy accepted")
	}
	got, ok := r.Get("tenantA")
	if !ok || got.Quota.MaxFileSets != 2 || got.Quota.OpRate != 100 || got.Weight != 4 || got.Policy != PolicyPack {
		t.Fatalf("Get(tenantA) = %+v", got)
	}
	if _, err := r.Delete("tenantA", func(string) int { return 3 }); err == nil {
		t.Fatal("Delete of in-use volume accepted")
	}
	if _, err := r.Delete("tenantA", func(string) int { return 0 }); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Delete(namespace.DefaultVolume, nil); err == nil {
		t.Fatal("Delete of default volume accepted")
	}
}

func TestRegistryInstallMonotone(t *testing.T) {
	r := NewRegistry()
	newer := []Info{{Name: "t", Weight: 2, Policy: PolicySpread, Quota: Quota{MaxFileSets: 1}}}
	if !r.Install(newer, 5) {
		t.Fatal("newer snapshot rejected")
	}
	if got, ok := r.Get("t"); !ok || got.Weight != 2 {
		t.Fatalf("installed volume missing: %+v ok=%v", got, ok)
	}
	if _, ok := r.Get(namespace.DefaultVolume); !ok {
		t.Fatal("Install dropped the default volume")
	}
	if r.Install([]Info{{Name: "stale"}}, 4) {
		t.Fatal("stale snapshot applied")
	}
	if r.Install([]Info{{Name: "same"}}, 5) {
		t.Fatal("equal-version snapshot applied")
	}
	if r.Version() != 5 {
		t.Fatalf("version = %d, want 5", r.Version())
	}
}

func TestEncodeDecodeRejectsGarbage(t *testing.T) {
	if _, _, err := Decode([]byte("{")); err == nil {
		t.Fatal("truncated JSON accepted")
	}
	if _, _, err := Decode([]byte(`{"version":1,"volumes":[{"name":""}]}`)); err == nil {
		t.Fatal("empty volume name accepted")
	}
	if _, _, err := Decode([]byte(`{"version":1,"volumes":[{"name":"a","weight":-1}]}`)); err == nil {
		t.Fatal("negative weight accepted")
	}
}
