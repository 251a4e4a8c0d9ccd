package fleet

import (
	"fmt"
	"time"

	"anufs/internal/placement"
	"anufs/internal/sharedisk"
	"anufs/internal/volume"
)

// MapFileSet is the pseudo file set the authority keeps its durable state
// under: the cluster map and the volume registry, in one image. Writing it
// through the daemon's Durable disk makes it a journaled, snapshot-surviving
// record that the existing log shipper carries to the standby authority for
// free — the authority replicates on the same machinery as file-set
// metadata. The "/" in the name keeps it out of the flat client namespace,
// and it is never in any map's Assign, so the fleet gate rejects every
// client operation addressed to it.
const MapFileSet = "__fleet/map"

// The image's two records; each JSON encoding rides in its record's Owner
// field (Record has no byte payload).
const (
	mapRecordKey     = "clustermap"
	volumesRecordKey = "volumes"
)

// encodeMapImage wraps the map and the registry snapshot of one commit in a
// shared-disk image whose Version is the map's epoch — Install's downgrade
// check then enforces monotonicity for free, and a standby replaying
// shipped segments always ends at the newest commit it received.
func encodeMapImage(cm *placement.ClusterMap, vols []volume.Info, version uint64) (sharedisk.Image, error) {
	encoded, err := cm.Encode()
	if err != nil {
		return sharedisk.Image{}, err
	}
	registry, err := volume.Encode(vols, version)
	if err != nil {
		return sharedisk.Image{}, err
	}
	now := time.Now()
	return sharedisk.Image{
		Version: cm.Epoch,
		Records: map[string]sharedisk.Record{
			mapRecordKey:     {Size: int64(len(encoded)), ModTime: now, Owner: string(encoded)},
			volumesRecordKey: {Size: int64(len(registry)), ModTime: now, Owner: string(registry)},
		},
	}, nil
}

// decodeMapImage recovers the map and the registry snapshot from an image
// encodeMapImage wrote. It refuses an image that lacks either record, or
// whose map does not list its own authority daemon — an authority resumed
// from it could not say where it lives.
func decodeMapImage(im sharedisk.Image) (*placement.ClusterMap, []volume.Info, uint64, error) {
	mrec, ok := im.Records[mapRecordKey]
	if !ok {
		return nil, nil, 0, fmt.Errorf("fleet: image %q carries no %s record", MapFileSet, mapRecordKey)
	}
	vrec, ok := im.Records[volumesRecordKey]
	if !ok {
		return nil, nil, 0, fmt.Errorf("fleet: image %q carries no %s record", MapFileSet, volumesRecordKey)
	}
	cm, err := placement.DecodeClusterMap([]byte(mrec.Owner))
	if err != nil {
		return nil, nil, 0, err
	}
	if _, ok := cm.AuthorityDaemon(); !ok {
		return nil, nil, 0, fmt.Errorf("fleet: map (epoch %d) does not contain its authority daemon %d",
			cm.Epoch, cm.Authority)
	}
	vols, version, err := volume.Decode([]byte(vrec.Owner))
	if err != nil {
		return nil, nil, 0, err
	}
	return cm, vols, version, nil
}
