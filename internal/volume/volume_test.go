package volume

import (
	"math"
	"testing"

	"anufs/internal/namespace"
)

// TestRegistryLifecycle: each edit of the volume registry — the cluster
// map's volume list — returns a new name-sorted list, leaves the one it was
// given alone, and refuses what would break a tenant's config.
func TestRegistryLifecycle(t *testing.T) {
	start := []Info{Default()}
	vols, err := Create(start, "tenantA")
	if err != nil {
		t.Fatal(err)
	}
	if len(start) != 1 {
		t.Fatalf("Create changed its input: %+v", start)
	}
	if vols, err = Create(vols, "alpha"); err != nil {
		t.Fatal(err)
	}
	if vols[0].Name != "alpha" || vols[1].Name != namespace.DefaultVolume || vols[2].Name != "tenantA" {
		t.Fatalf("volumes not sorted by name: %+v", vols)
	}
	if _, err := Create(vols, "tenantA"); err == nil {
		t.Fatal("duplicate Create accepted")
	}
	if _, err := Create(vols, "bad/name"); err == nil {
		t.Fatal("separator in volume name accepted")
	}
	if _, err := Create(vols, "__sys"); err == nil {
		t.Fatal("reserved volume name accepted")
	}
	if vols, err = SetQuota(vols, "tenantA", Quota{MaxFileSets: 2, OpRate: 100}, 4); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := SetQuota(vols, "tenantA", Quota{OpRate: bad}, 0); err == nil {
			t.Fatalf("op rate %v accepted", bad)
		}
		if _, err := SetQuota(vols, "tenantA", Quota{}, bad); err == nil {
			t.Fatalf("weight %v accepted", bad)
		}
	}
	if _, err := SetQuota(vols, "ghost", Quota{}, 0); err == nil {
		t.Fatal("SetQuota of an unknown volume accepted")
	}
	if vols, err = SetPolicy(vols, "tenantA", PolicyPack); err != nil {
		t.Fatal(err)
	}
	if _, err := SetPolicy(vols, "tenantA", "sideways"); err == nil {
		t.Fatal("bogus policy accepted")
	}
	got, ok := Find(vols, "tenantA")
	if !ok || got.Quota.MaxFileSets != 2 || got.Quota.OpRate != 100 || got.Weight != 4 || got.Policy != PolicyPack {
		t.Fatalf("Find(tenantA) = %+v, %v", got, ok)
	}
	if vols, err = Delete(vols, "tenantA"); err != nil {
		t.Fatal(err)
	}
	if _, ok := Find(vols, "tenantA"); ok {
		t.Fatal("deleted volume still found")
	}
	if _, err := Delete(vols, "tenantA"); err == nil {
		t.Fatal("Delete of a missing volume accepted")
	}
	if _, err := Delete(vols, namespace.DefaultVolume); err == nil {
		t.Fatal("Delete of default volume accepted")
	}
}
