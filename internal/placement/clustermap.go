package placement

import (
	"encoding/json"
	"fmt"
	"sort"
)

// DaemonInfo describes one anufsd process in a fleet: its numeric ID (the
// same ID space the ANU mapper hashes over), the TCP address clients dial,
// its relative speed (the heterogeneity knob the paper's ANU shares are
// proportional to), and its journal directory on the shared disk — what a
// failover replays when the daemon dies (empty: the daemon runs volatile).
type DaemonInfo struct {
	ID         int     `json:"id"`
	Addr       string  `json:"addr"`
	Speed      float64 `json:"speed"`
	JournalDir string  `json:"journal_dir,omitempty"`
}

// ClusterMap is the fleet's routing plane: an epoch-numbered assignment of
// file sets to daemons. The authority publishes it; routers cache it and
// refetch on wrong-owner errors. A map is immutable once published — every
// change produces a new map with a strictly larger epoch, which is what
// makes "stale" a well-defined client state.
type ClusterMap struct {
	Epoch   uint64       `json:"epoch"`
	Daemons []DaemonInfo `json:"daemons"`
	// Assign maps file set → owning daemon ID. File sets absent from the
	// map are unplaced (a router treats them as errors, not guesses).
	Assign map[string]int `json:"assign"`
	// Authority is the ID of the daemon hosting the map authority. After a
	// standby promotion the promoted process publishes itself here, which is
	// how members and routers learn where join/heartbeat/assign now live.
	// Zero is both "daemon 0" and "unset" — pre-replication maps carried no
	// authority field, and daemon 0 hosting the authority is the historical
	// convention either way, so the ambiguity is harmless by construction.
	Authority int `json:"authority,omitempty"`
}

// Encode serializes the map for the wire (`map` op payload). The daemon
// list is sorted by ID first so equal maps encode to equal bytes.
func (m *ClusterMap) Encode() ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	cp := *m
	cp.Daemons = append([]DaemonInfo(nil), m.Daemons...)
	sort.Slice(cp.Daemons, func(i, j int) bool { return cp.Daemons[i].ID < cp.Daemons[j].ID })
	return json.Marshal(&cp)
}

// DecodeClusterMap parses and validates an encoded map. Corrupt bytes yield
// an error, never a panic — the payload crosses a trust boundary.
func DecodeClusterMap(b []byte) (*ClusterMap, error) {
	var m ClusterMap
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("placement: decode cluster map: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// Validate checks the structural invariants a router relies on: a positive
// epoch, at least one daemon, unique daemon IDs with dialable addresses and
// positive speeds, and every assignment targeting a known daemon.
func (m *ClusterMap) Validate() error {
	if m.Epoch == 0 {
		return fmt.Errorf("placement: cluster map epoch must be > 0")
	}
	if len(m.Daemons) == 0 {
		return fmt.Errorf("placement: cluster map has no daemons")
	}
	seen := make(map[int]bool, len(m.Daemons))
	for _, d := range m.Daemons {
		if seen[d.ID] {
			return fmt.Errorf("placement: duplicate daemon id %d", d.ID)
		}
		seen[d.ID] = true
		if d.Addr == "" {
			return fmt.Errorf("placement: daemon %d has no address", d.ID)
		}
		if !(d.Speed > 0) {
			return fmt.Errorf("placement: daemon %d speed %v must be > 0", d.ID, d.Speed)
		}
	}
	// The verdict does not depend on map order; the order only picks which of
	// several errors is reported.
	for fs, id := range m.Assign {
		if !seen[id] {
			return fmt.Errorf("placement: file set %q assigned to unknown daemon %d", fs, id)
		}
	}
	return nil
}

// AuthorityDaemon returns the daemon hosting the map authority, or ok=false
// when that daemon is not in the map (a promoted standby advertises itself
// in Daemons, so false means a malformed map).
func (m *ClusterMap) AuthorityDaemon() (DaemonInfo, bool) {
	return m.Daemon(m.Authority)
}

// Daemon returns the info for a daemon ID.
func (m *ClusterMap) Daemon(id int) (DaemonInfo, bool) {
	for _, d := range m.Daemons {
		if d.ID == id {
			return d, true
		}
	}
	return DaemonInfo{}, false
}

// Owner returns the daemon that owns a file set, or ok=false when the file
// set is unplaced.
func (m *ClusterMap) Owner(fileSet string) (DaemonInfo, bool) {
	id, ok := m.Assign[fileSet]
	if !ok {
		return DaemonInfo{}, false
	}
	return m.Daemon(id)
}

// FileSetsOf lists the file sets assigned to a daemon, sorted.
func (m *ClusterMap) FileSetsOf(id int) []string {
	var out []string
	for fs, d := range m.Assign {
		if d == id {
			out = append(out, fs)
		}
	}
	sort.Strings(out)
	return out
}
