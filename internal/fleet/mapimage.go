package fleet

import (
	"fmt"
	"time"

	"anufs/internal/placement"
	"anufs/internal/sharedisk"
)

// MapFileSet is the pseudo file set the authority keeps its durable state
// under: the cluster map, volumes included, as an image of one record.
// Writing it through the daemon's Durable disk makes it a journaled,
// snapshot-surviving record that the existing log shipper carries to the
// standby authority for free — the authority replicates on the same
// machinery as file-set metadata. The "/" in the name keeps it out of the
// flat client namespace, and it is never in any map's Assign, so the fleet
// gate rejects every client operation addressed to it.
const MapFileSet = "__fleet/map"

// mapRecordKey names the image's one record; the map's JSON encoding rides
// in its Owner field (Record has no byte payload).
const mapRecordKey = "clustermap"

// encodeMapImage wraps one committed map in a shared-disk image whose
// Version is the map's epoch — Install's downgrade check then enforces
// monotonicity for free, and a standby replaying shipped segments always
// ends at the newest commit it received.
func encodeMapImage(cm *placement.ClusterMap) (sharedisk.Image, error) {
	encoded, err := cm.Encode()
	if err != nil {
		return sharedisk.Image{}, err
	}
	return sharedisk.Image{
		Version: cm.Epoch,
		Records: map[string]sharedisk.Record{
			mapRecordKey: {Size: int64(len(encoded)), ModTime: time.Now(), Owner: string(encoded)},
		},
	}, nil
}

// decodeMapImage recovers the map from an image encodeMapImage wrote. It
// refuses an image that is not the one map record — an earlier layout kept
// the volumes in a second record, and resuming its map alone would drop
// every tenant — and one whose map does not list its own authority daemon:
// an authority resumed from it could not say where it lives.
func decodeMapImage(im sharedisk.Image) (*placement.ClusterMap, error) {
	rec, ok := im.Records[mapRecordKey]
	if !ok || len(im.Records) != 1 {
		return nil, fmt.Errorf("fleet: image %q holds %d records, want one %s record",
			MapFileSet, len(im.Records), mapRecordKey)
	}
	cm, err := placement.DecodeClusterMap([]byte(rec.Owner))
	if err != nil {
		return nil, err
	}
	if _, ok := cm.AuthorityDaemon(); !ok {
		return nil, fmt.Errorf("fleet: map (epoch %d) does not contain its authority daemon %d",
			cm.Epoch, cm.Authority)
	}
	return cm, nil
}
