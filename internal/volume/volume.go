// Package volume describes tenants: named volumes that own private file-set
// namespaces, quotas (file-set count, op rate), a weighted-fair-queueing
// weight, and a placement policy. The paper's ANU mapper balances one flat
// namespace of 21 file sets; a production shared-disk system serves
// tenants, so every file-set ID is volume-qualified ("vol/fileset", see
// internal/namespace). The volume list is a field of the cluster map
// (placement.ClusterMap.Volumes), versioned by the map's epoch; the edits
// here return a new list and never change the one they are given.
package volume

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"anufs/internal/namespace"
)

// Placement policies. Spread hashes a volume's file sets across the whole
// fleet (the paper's interval placement — right for hot tenants that need
// aggregate throughput); Pack co-locates a volume's file sets on as few
// daemons as possible (right for cold tenants, and it keeps their working
// set in one journal).
const (
	PolicySpread = "spread"
	PolicyPack   = "pack"
)

// ValidPolicy reports whether p names a placement policy.
func ValidPolicy(p string) bool { return p == PolicySpread || p == PolicyPack }

// Quota bounds one tenant. Zero values mean unlimited.
type Quota struct {
	// MaxFileSets caps how many file sets the volume may own.
	MaxFileSets int `json:"max_filesets,omitempty"`
	// OpRate caps the volume's sustained operations per second at each
	// owning daemon (enforced by a token bucket in the fleet gate).
	OpRate float64 `json:"op_rate,omitempty"`
}

// Info is one volume's durable configuration.
type Info struct {
	Name   string  `json:"name"`
	Quota  Quota   `json:"quota"`
	Policy string  `json:"policy"`
	Weight float64 `json:"weight"` // weighted-fair-queueing share; >= 0, default 1
}

// Default is the implicit volume every unqualified file-set ID belongs
// to: unlimited quota, spread placement, unit weight. It always exists.
func Default() Info {
	return Info{Name: namespace.DefaultVolume, Policy: PolicySpread, Weight: 1}
}

// search finds name in vols, a list sorted by name: its index, or where
// it would go.
func search(vols []Info, name string) (int, bool) {
	return slices.BinarySearchFunc(vols, name, func(v Info, name string) int { return strings.Compare(v.Name, name) })
}

// Find returns the volume called name in vols, a list sorted by name.
func Find(vols []Info, name string) (Info, bool) {
	if i, ok := search(vols, name); ok {
		return vols[i], true
	}
	return Info{}, false
}

// Create returns vols plus a new volume with the default config (unlimited
// quota, spread, unit weight).
func Create(vols []Info, name string) ([]Info, error) {
	if err := namespace.ValidVolumeName(name); err != nil {
		return nil, err
	}
	i, ok := search(vols, name)
	if ok {
		return nil, fmt.Errorf("volume: %q already exists", name)
	}
	return slices.Insert(slices.Clone(vols), i, Info{Name: name, Policy: PolicySpread, Weight: 1}), nil
}

// Delete returns vols without the volume called name. The default volume
// is permanent.
func Delete(vols []Info, name string) ([]Info, error) {
	if name == namespace.DefaultVolume {
		return nil, fmt.Errorf("volume: the default volume cannot be deleted")
	}
	i, ok := search(vols, name)
	if !ok {
		return nil, fmt.Errorf("volume: %q does not exist", name)
	}
	return slices.Delete(slices.Clone(vols), i, i+1), nil
}

// SetQuota returns vols with the named volume's quota replaced and, when
// weight > 0, its WFQ weight.
func SetQuota(vols []Info, name string, q Quota, weight float64) ([]Info, error) {
	for _, x := range []float64{float64(q.MaxFileSets), q.OpRate, weight} {
		if !(x >= 0) || math.IsInf(x, 1) {
			return nil, fmt.Errorf("volume: quota and weight must be finite and non-negative")
		}
	}
	return update(vols, name, func(v *Info) {
		v.Quota = q
		if weight > 0 {
			v.Weight = weight
		}
	})
}

// SetPolicy returns vols with the named volume's placement policy replaced.
func SetPolicy(vols []Info, name, policy string) ([]Info, error) {
	if !ValidPolicy(policy) {
		return nil, fmt.Errorf("volume: unknown policy %q (want %s or %s)", policy, PolicySpread, PolicyPack)
	}
	return update(vols, name, func(v *Info) { v.Policy = policy })
}

// update returns a copy of vols with edit applied to the named volume.
func update(vols []Info, name string, edit func(*Info)) ([]Info, error) {
	i, ok := search(vols, name)
	if !ok {
		return nil, fmt.Errorf("volume: %q does not exist", name)
	}
	out := slices.Clone(vols)
	edit(&out[i])
	return out, nil
}
