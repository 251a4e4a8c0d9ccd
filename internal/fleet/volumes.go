package fleet

import (
	"fmt"
	"slices"

	"anufs/internal/namespace"
	"anufs/internal/placement"
	"anufs/internal/volume"
	"anufs/internal/wire"
)

// Volume plumbing. The tenant volumes (quotas, weights, placement policy)
// are a field of the cluster map, so the authority edits them the way it
// makes any other change — a candidate map at a fresh epoch, committed,
// then published — and a member applies them to its serving plane
// (owner-queue weights, op-rate buckets) whenever it adopts a map whose
// volumes differ from the ones in force, by whatever path the map came.
// Enforcement splits by what each side can see: the authority holds the
// global assignment, so MaxFileSets and placement policy apply at Assign;
// a member only sees its own traffic, so OpRate is a per-daemon token
// bucket at the gate.

// VolumeCreate registers a new tenant volume and returns the epoch of the
// map that announces it.
func (a *Authority) VolumeCreate(name string) (uint64, error) {
	return a.changeVolumes(func(cur *placement.ClusterMap) ([]volume.Info, error) {
		return volume.Create(cur.Volumes, name)
	})
}

// VolumeDelete removes an empty volume; a volume still owning file sets
// is refused, so quota state never vanishes under live data.
func (a *Authority) VolumeDelete(name string) (uint64, error) {
	return a.changeVolumes(func(cur *placement.ClusterMap) ([]volume.Info, error) {
		vols, err := volume.Delete(cur.Volumes, name)
		if n := fileSetsIn(cur, name); err == nil && n > 0 {
			err = fmt.Errorf("volume: %q still owns %d file sets", name, n)
		}
		return vols, err
	})
}

// VolumeSetQuota updates a volume's quotas and scheduling weight
// (weight <= 0 keeps the current weight).
func (a *Authority) VolumeSetQuota(name string, q volume.Quota, weight float64) (uint64, error) {
	return a.changeVolumes(func(cur *placement.ClusterMap) ([]volume.Info, error) {
		return volume.SetQuota(cur.Volumes, name, q, weight)
	})
}

// VolumeSetPolicy updates a volume's placement policy (spread | pack).
func (a *Authority) VolumeSetPolicy(name, policy string) (uint64, error) {
	return a.changeVolumes(func(cur *placement.ClusterMap) ([]volume.Info, error) {
		return volume.SetPolicy(cur.Volumes, name, policy)
	})
}

// changeVolumes is the reconfiguration a volume edit makes: under mu, edit
// derives the new volume list from the current map, and a map at a fresh
// epoch with that list and an unchanged assignment is committed — one
// image, so edits reach the disk in epoch order — then published. A
// refused edit commits nothing.
func (a *Authority) changeVolumes(edit func(cur *placement.ClusterMap) ([]volume.Info, error)) (uint64, error) {
	a.mu.Lock()
	cur := a.Map()
	vols, err := edit(cur)
	if err != nil {
		a.mu.Unlock()
		return cur.Epoch, err
	}
	cm := a.nextLocked(cur, cur.Daemons)
	cm.Volumes = vols
	a.commitLocked(cm)
	a.mu.Unlock()
	a.publish(cm)
	return cm.Epoch, nil
}

// fileSetsIn counts the file sets cm assigns to volume vol.
func fileSetsIn(cm *placement.ClusterMap, vol string) int {
	n := 0
	for fs := range cm.Assign {
		if namespace.VolumeOf(fs) == vol {
			n++
		}
	}
	return n
}

// admitFileSetLocked enforces volume admission for a file set about to
// enter the map: the volume must exist (system pseudo file sets bypass)
// and have headroom under its MaxFileSets quota. Caller holds mu.
func (a *Authority) admitFileSetLocked(cur *placement.ClusterMap, fileSet string) error {
	vol := namespace.VolumeOf(fileSet)
	if namespace.SystemVolume(vol) {
		return nil
	}
	info, ok := volume.Find(cur.Volumes, vol)
	if !ok {
		return fmt.Errorf("fleet: unknown volume %q: create it first (anufsctl volume create)", vol)
	}
	if max := info.Quota.MaxFileSets; max > 0 {
		if n := fileSetsIn(cur, vol); n >= max {
			a.obs.Counter(CtrQuotaDenials).Add(1)
			return wire.QuotaExceeded(fmt.Errorf(
				"fleet: volume %q at its file-set quota (%d of %d)", vol, n, max))
		}
	}
	return nil
}

// placeLocked picks the owner for a file set the caller did not pin. A
// new file set in a pack-policy volume co-locates with the bulk of that
// volume's existing file sets; everything else (spread policy, moves of
// already-owned file sets, volumes with nothing placed yet) follows the
// speed-weighted ANU placement. Caller holds mu.
func (a *Authority) placeLocked(cur *placement.ClusterMap, fileSet string, owned bool) int {
	if !owned {
		vol := namespace.VolumeOf(fileSet)
		if info, ok := volume.Find(cur.Volumes, vol); ok && info.Policy == volume.PolicyPack {
			if id, ok := a.packOwnerLocked(cur, vol); ok {
				return id
			}
		}
	}
	return a.anu.Owner(fileSet)
}

// packOwnerLocked finds the daemon owning the most of vol's file sets
// (lowest ID on ties); ok=false when the volume owns none yet — the first
// file set seeds wherever ANU puts it.
func (a *Authority) packOwnerLocked(cur *placement.ClusterMap, vol string) (int, bool) {
	counts := map[int]int{}
	for fs, id := range cur.Assign {
		if namespace.VolumeOf(fs) == vol {
			counts[id]++
		}
	}
	best, bestN := -1, 0
	for id, n := range counts {
		if n > bestN || (n == bestN && id < best) {
			best, bestN = id, n
		}
	}
	return best, best != -1
}

// setMapLocked makes cm the member's map. When cm's volumes differ from
// the ones in force it applies them to the serving plane — owner queue
// weights on the live cluster, per-volume op-rate token buckets on the
// gate — and counts a volume refresh. Buckets keep their accrued tokens
// across updates that do not change their rate, so a quota edit elsewhere
// never refills a throttled tenant. Caller holds mu.
func (m *Member) setMapLocked(cm *placement.ClusterMap) {
	if !slices.Equal(cm.Volumes, m.cur.Volumes) {
		m.cfg.Obs.Counter(CtrVolumeRefreshes).Add(1)
		m.applyVolumesLocked(cm.Volumes)
	}
	m.cur = cm
}

// applyVolumesLocked rebuilds the op-rate buckets and the queue weights
// from vols. Caller holds mu, which keeps concurrent adopts applying their
// weights in map order.
func (m *Member) applyVolumesLocked(vols []volume.Info) {
	weights := make(map[string]float64, len(vols))
	buckets := make(map[string]*volume.Bucket, len(vols))
	for _, v := range vols {
		weights[v.Name] = v.Weight
		b := m.buckets[v.Name]
		if b.Rate() != v.Quota.OpRate {
			b = volume.NewBucket(v.Quota.OpRate) // nil = unlimited
		}
		buckets[v.Name] = b
	}
	m.buckets = buckets
	m.cfg.Cluster.SetVolumeWeights(weights)
}
