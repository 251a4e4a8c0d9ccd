package core

import (
	"fmt"

	"anufs/internal/hashfam"
	"anufs/internal/interval"
)

// Mapper is the ANU placement function: it owns the server→unit-interval
// mapping and locates file sets by hashing. A Mapper is mutated only by the
// delegate (or by membership changes); lookups on a published snapshot are
// safe for concurrent use as long as no mutation is in flight — publish
// Clone()s to readers, as the paper's delegate distributes the mapping to
// all servers.
type Mapper struct {
	cfg Config
	fam *hashfam.Family
	iv  *interval.Interval
	// alive caches the sorted server IDs for the fallback path.
	alive []int
}

// NewMapper creates a mapper over the given servers with equal shares —
// the paper's initial configuration, which "assumes initially that all file
// sets and all servers are uniform" (§7).
func NewMapper(cfg Config, serverIDs []int) (*Mapper, error) {
	cfg = cfg.withDefaults()
	if len(serverIDs) == 0 {
		return nil, fmt.Errorf("core: no servers")
	}
	iv, err := interval.New(serverIDs, interval.EqualShares(len(serverIDs), interval.Half))
	if err != nil {
		return nil, err
	}
	m := &Mapper{
		cfg: cfg,
		fam: hashfam.New(cfg.HashSeed, cfg.MaxRounds),
		iv:  iv,
	}
	m.refreshAlive()
	return m, nil
}

func (m *Mapper) refreshAlive() {
	m.alive = m.iv.Servers()
}

// Config returns the mapper's configuration.
func (m *Mapper) Config() Config { return m.cfg }

// Servers returns the live server IDs in ascending order.
func (m *Mapper) Servers() []int { return append([]int(nil), m.alive...) }

// NumServers reports the number of live servers.
func (m *Mapper) NumServers() int { return len(m.alive) }

// Partitions reports the current partition count of the unit interval.
func (m *Mapper) Partitions() int { return m.iv.Partitions() }

// ShareFrac reports a server's mapped mass as a fraction of the whole unit
// interval (so a balanced n-server system reports 1/(2n) per server).
func (m *Mapper) ShareFrac(id int) (float64, bool) {
	s, ok := m.iv.Share(id)
	if !ok {
		return 0, false
	}
	return float64(s) / float64(interval.Whole), true
}

// Shares returns every server's mapped mass in fixed-point units.
func (m *Mapper) Shares() map[int]uint64 { return m.iv.Shares() }

// Interval exposes a read-only clone of the underlying interval for
// inspection and visualization.
func (m *Mapper) Interval() *interval.Interval { return m.iv.Clone() }

// Locate returns the server responsible for the named file set and the
// number of hash probes used. At half occupancy the expected probe count is
// 2 (paper §4); when all MaxRounds probes land in unmapped space the name
// falls back to a direct hash onto the live servers, and probes reports
// MaxRounds+1.
func (m *Mapper) Locate(name string) (serverID, probes int) {
	for r := 0; r < m.fam.MaxRounds(); r++ {
		p := m.fam.Point64(name, r) >> (64 - interval.UnitBits)
		if owner := m.iv.OwnerAt(p); owner != interval.Free {
			return owner, r + 1
		}
	}
	return m.alive[m.fam.Fallback(name, len(m.alive))], m.fam.MaxRounds() + 1
}

// Owner is Locate without the probe count, for callers that only route.
func (m *Mapper) Owner(name string) int {
	id, _ := m.Locate(name)
	return id
}

// Rescale atomically retargets the mapped masses. The target must name
// exactly the live servers and sum to interval.Half. This is the primitive
// the delegate and the pairwise tuner use.
func (m *Mapper) Rescale(target map[int]uint64) error {
	return m.iv.SetShares(target)
}

// AddServer commissions (or recovers) a server. If shareFrac <= 0 the
// config's SeedShareFrac applies, defaulting to one partition width — the
// paper's "assigned to a free partition". Existing servers are scaled back
// proportionally to preserve half occupancy, and the interval re-partitions
// if needed; neither step moves mass belonging to unaffected servers.
func (m *Mapper) AddServer(id int, shareFrac float64) error {
	if shareFrac <= 0 {
		shareFrac = m.cfg.SeedShareFrac
	}
	var share uint64
	if shareFrac > 0 {
		if shareFrac > 0.5 {
			return fmt.Errorf("core: join share %v exceeds half occupancy", shareFrac)
		}
		share = uint64(shareFrac * float64(interval.Whole))
	} else {
		// One partition width after any re-partitioning the add triggers.
		share = interval.Whole / uint64(interval.PartitionsFor(len(m.alive)+1))
	}
	if err := m.iv.AddServer(id, share); err != nil {
		return err
	}
	m.refreshAlive()
	return nil
}

// RemoveServer decommissions a server or reacts to its failure. The
// survivors grow proportionally to restore half occupancy; only file sets
// that hash into mass that changed hands move (paper §4: "only the file
// set(s) that were served previously by the failed server are re-hashed").
func (m *Mapper) RemoveServer(id int) error {
	if err := m.iv.RemoveServer(id); err != nil {
		return err
	}
	m.refreshAlive()
	return nil
}

// Clone returns an independent snapshot, e.g. for publishing a new
// configuration while retaining the previous one to compute shed sets.
func (m *Mapper) Clone() *Mapper {
	return &Mapper{
		cfg:   m.cfg,
		fam:   m.fam, // immutable, shared
		iv:    m.iv.Clone(),
		alive: append([]int(nil), m.alive...),
	}
}

// Move describes one file set changing servers between two configurations.
type Move struct {
	Name     string
	From, To int
}

// Moves lists the file sets (from names) whose owner differs between two
// mapper configurations — the "shed" computation each server performs when
// it receives an updated mapping (paper §4).
func Moves(before, after *Mapper, names []string) []Move {
	var moves []Move
	for _, n := range names {
		f, t := before.Owner(n), after.Owner(n)
		if f != t {
			moves = append(moves, Move{Name: n, From: f, To: t})
		}
	}
	return moves
}
