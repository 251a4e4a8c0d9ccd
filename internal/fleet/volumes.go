package fleet

import (
	"fmt"

	"anufs/internal/namespace"
	"anufs/internal/placement"
	"anufs/internal/volume"
	"anufs/internal/wire"
)

// Volume plumbing. The authority owns the mutable volume registry
// (tenants, quotas, weights, placement policy); every mutation bumps the
// cluster-map epoch so the registry snapshot rides the same push/poll
// convergence machinery as the map itself — OpAdopt publishes and OpMap
// replies carry the snapshot, members install newer versions and apply
// them to their serving plane (owner-queue weights, op-rate buckets).
// Enforcement splits by what each side can see: the authority holds the
// global assignment, so MaxFileSets and placement policy apply at Assign;
// a member only sees its own traffic, so OpRate is a per-daemon token
// bucket at the gate.

// Volumes snapshots the authority's registry.
func (a *Authority) Volumes() ([]volume.Info, uint64) { return a.vols.List() }

// VolumeCreate registers a new tenant volume and returns the epoch of the
// map that announces it.
func (a *Authority) VolumeCreate(name string) (uint64, error) {
	return a.changeVolumes(func(*placement.ClusterMap) error {
		_, err := a.vols.Create(name)
		return err
	})
}

// VolumeDelete removes an empty volume; a volume still owning file sets
// is refused.
func (a *Authority) VolumeDelete(name string) (uint64, error) {
	return a.changeVolumes(func(cur *placement.ClusterMap) error {
		_, err := a.vols.Delete(name, func(vol string) int {
			n := 0
			for fs := range cur.Assign {
				if namespace.VolumeOf(fs) == vol {
					n++
				}
			}
			return n
		})
		return err
	})
}

// VolumeSetQuota updates a volume's quotas and scheduling weight
// (weight <= 0 keeps the current weight).
func (a *Authority) VolumeSetQuota(name string, q volume.Quota, weight float64) (uint64, error) {
	return a.changeVolumes(func(*placement.ClusterMap) error {
		_, err := a.vols.SetQuota(name, q, weight)
		return err
	})
}

// VolumeSetPolicy updates a volume's placement policy (spread | pack).
func (a *Authority) VolumeSetPolicy(name, policy string) (uint64, error) {
	return a.changeVolumes(func(*placement.ClusterMap) error {
		_, err := a.vols.SetPolicy(name, policy)
		return err
	})
}

// changeVolumes is the reconfiguration a registry edit makes: under mu it
// applies edit to the registry and commits a map at a fresh epoch with an
// unchanged assignment — one image carries both, so edits reach the disk
// in epoch order — then publishes it, so the push and member polls deliver
// the new registry fleet-wide. A refused edit commits nothing.
func (a *Authority) changeVolumes(edit func(cur *placement.ClusterMap) error) (uint64, error) {
	a.mu.Lock()
	cur := a.Map()
	if err := edit(cur); err != nil {
		a.mu.Unlock()
		return cur.Epoch, err
	}
	cm := a.nextLocked(cur.Daemons, cur.Assign)
	a.commitLocked(cm)
	a.mu.Unlock()
	a.publish(cm)
	return cm.Epoch, nil
}

// admitFileSetLocked enforces volume admission for a file set about to
// enter the map: the volume must exist (system pseudo file sets bypass)
// and have headroom under its MaxFileSets quota. Caller holds mu.
func (a *Authority) admitFileSetLocked(cur *placement.ClusterMap, fileSet string) error {
	vol := namespace.VolumeOf(fileSet)
	if namespace.SystemVolume(vol) {
		return nil
	}
	info, ok := a.vols.Get(vol)
	if !ok {
		return fmt.Errorf("fleet: unknown volume %q: create it first (anufsctl volume create)", vol)
	}
	if max := info.Quota.MaxFileSets; max > 0 {
		n := 0
		for fs := range cur.Assign {
			if namespace.VolumeOf(fs) == vol {
				n++
			}
		}
		if n >= max {
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
		if info, ok := a.vols.Get(vol); ok && info.Policy == volume.PolicyPack {
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

// Volumes snapshots the member's registry view (the authority's own on
// the authority daemon).
func (m *Member) Volumes() ([]volume.Info, uint64) { return m.vols.List() }

// installVolumes adopts a pushed registry snapshot when it is newer than
// the member's view, then re-applies it to the serving plane.
func (m *Member) installVolumes(vols []volume.Info, version uint64) {
	if version == 0 || len(vols) == 0 {
		return
	}
	if m.vols.Install(vols, version) {
		m.cfg.Obs.Counter(CtrVolumeRefreshes).Add(1)
		m.applyVolumes()
	}
}

// applyVolumes pushes the current registry into the serving plane: owner
// queue weights on the live cluster, per-volume op-rate token buckets on
// the gate. Buckets keep their accrued tokens across updates that do not
// change their rate, so a quota edit elsewhere never refills a throttled
// tenant.
func (m *Member) applyVolumes() {
	vols, _ := m.vols.List()
	weights := make(map[string]float64, len(vols))
	known := make(map[string]bool, len(vols))
	m.mu.Lock()
	for _, v := range vols {
		weights[v.Name] = v.Weight
		known[v.Name] = true
		if old, ok := m.buckets[v.Name]; ok && (old == nil && v.Quota.OpRate <= 0 ||
			old != nil && old.Rate() == v.Quota.OpRate) {
			continue
		}
		m.buckets[v.Name] = volume.NewBucket(v.Quota.OpRate) // nil = unlimited
	}
	for name := range m.buckets {
		if !known[name] {
			delete(m.buckets, name)
		}
	}
	m.mu.Unlock()
	m.cfg.Cluster.SetVolumeWeights(weights)
}
