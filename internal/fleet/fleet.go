package fleet

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"anufs/internal/journal"
	"anufs/internal/live"
	"anufs/internal/namespace"
	"anufs/internal/obs"
	"anufs/internal/placement"
	"anufs/internal/sharedisk"
	"anufs/internal/volume"
	"anufs/internal/wire"
)

// Fleet counter names exported through the obs registry.
const (
	CtrAdopts          = "fleet_adopts"
	CtrHandoffs        = "fleet_handoffs"
	CtrHandoffFailures = "fleet_handoff_failures"
	CtrWrongOwner      = "fleet_wrong_owner_rejects"
	CtrArrivingRejects = "fleet_arriving_rejects"
	CtrDropFailures    = "fleet_drop_failures"
	CtrMapRefreshes    = "fleet_map_refreshes"
	// Membership / failover counters (authority side unless noted).
	CtrJoins             = "fleet_joins"
	CtrLeaves            = "fleet_leaves"
	CtrFailovers         = "fleet_failovers"
	CtrFailoverFileSets  = "fleet_failover_filesets"
	CtrFailoverUnplaced  = "fleet_failover_unplaced"
	CtrPublishStragglers = "fleet_publish_stragglers"
	CtrPersistFailures   = "fleet_persist_failures"
	CtrTakeovers         = "fleet_takeovers"      // member: file sets adopted via failover
	CtrTakeoverEmpty     = "fleet_takeover_empty" // member: adopted with nothing to replay
	CtrRejoins           = "fleet_rejoins"        // member: heartbeat-triggered re-joins
	// Multi-tenant volume counters: quota denials (authority MaxFileSets +
	// member op-rate), registry persist failures (authority), registry
	// refreshes installed from pushes/polls (member).
	CtrQuotaDenials          = "fleet_quota_denials"
	CtrVolumePersistFailures = "fleet_volume_persist_failures"
	CtrVolumeRefreshes       = "fleet_volume_refreshes"
)

// unplacedMsg prefixes rejections of operations on file sets absent from
// the cluster map (typed wire.CodeUnplaced; the Router treats it as
// transient when its own, newer map places the file set).
const unplacedMsg = "fleet: unplaced file set"

// DefaultDrainTimeout bounds how long a donor waits for in-flight
// operations on a departing file set; DefaultPollInterval is the join-mode
// map poll cadence (a backstop behind the authority's eager pushes).
const (
	DefaultDrainTimeout = 10 * time.Second
	DefaultPollInterval = 500 * time.Millisecond
)

// MemberConfig parameterizes one daemon's fleet membership.
type MemberConfig struct {
	// ID is this daemon's ID in the cluster map.
	ID int
	// Cluster serves this daemon's file sets; Disk is its backing store
	// (the same one the cluster uses).
	Cluster *live.Cluster
	Disk    sharedisk.Disk
	// Authority is non-nil on the daemon that hosts the map authority.
	Authority *Authority
	// AuthorityAddr is the authority daemon's wire address (join mode);
	// empty on the authority daemon itself.
	AuthorityAddr string
	// StandbyAddr is the standby authority's address, tried by the poll
	// loop when the primary (map-advertised or AuthorityAddr) stops
	// answering. Pre-promotion the standby refuses fleet ops, so the
	// rotation naturally settles there only after it has taken over.
	StandbyAddr string
	// Addr is this daemon's own advertised wire address. Non-empty turns
	// the poll loop into a membership heartbeat: the daemon renews its
	// liveness lease at the authority instead of just probing the epoch,
	// and re-joins (with Speed and JournalDir below) when the authority
	// does not know it — a restart after being declared dead, or a
	// promoted standby resuming from a map from before this daemon joined.
	Addr string
	// Speed is this daemon's relative speed, reported on join (> 0;
	// defaults to 1). JournalDir is its journal directory on the shared
	// disk — what a surviving daemon replays if this one dies; empty means
	// volatile (failover adopts its file sets empty).
	Speed      float64
	JournalDir string
	// FenceAfter self-fences the gate when the authority has been
	// unreachable for this long (join mode only): a partitioned daemon
	// stops acknowledging writes its file sets' next owner will never see.
	// Zero disables self-fencing. Ordering matters: FenceAfter must be
	// strictly shorter than the authority's Lease (with margin for one
	// probe round trip), so the daemon stops acking BEFORE the authority
	// can replay its journal and reassign its file sets — a fence that
	// trips after the takeover re-opens the lost-write window it exists
	// to close. anufsd wires Lease/2.
	FenceAfter time.Duration
	// Obs receives the fleet gauges/histograms/counters; nil disables.
	Obs *obs.Registry
	// DrainTimeout and PollInterval default to the package constants.
	DrainTimeout time.Duration
	PollInterval time.Duration
	// Dial overrides outbound connections (tests), the poll/heartbeat
	// loop's included; nil uses a bounded-connect dial with a handoff-sized
	// per-call timeout, and wire.DialTimeout with a probe-sized deadline
	// for the poll loop.
	Dial func(addr string) (*wire.Client, error)
}

// DefaultProbeTimeout bounds one poll-loop dial + call against an
// authority candidate address.
const DefaultProbeTimeout = 2 * time.Second

// Member is one daemon's fleet state: the cached cluster map, the
// ready/in-flight bookkeeping the wrong-owner fence needs, and the
// adopt/handoff endpoints. It implements wire.FleetHandler.
type Member struct {
	cfg       MemberConfig
	probeDial func(addr string) (*wire.Client, error) // the poll loop's dialer
	handoffH  *obs.Histogram

	mu sync.Mutex
	// cur is the newest validated cluster map this daemon has seen.
	cur *placement.ClusterMap
	// lastContact is when the poll loop last heard from an authority
	// (join mode); the FenceAfter self-fence measures from here.
	lastContact time.Time
	// authIdx rotates through candidate authority addresses on probe
	// failures (map-advertised, configured primary, standby).
	authIdx int
	// ready marks file sets this daemon is actively serving; a file set
	// assigned here but not ready is either still being created or mid
	// adoption (clients get ErrArriving and retry).
	ready map[string]bool
	// inflight counts gate-admitted operations per file set, so a handoff
	// can drain them before the donor flushes — the zero-acked-write-loss
	// invariant: every acknowledged write either completed before the
	// flush or was never admitted.
	inflight map[string]int
	// buckets holds one op-rate token bucket per quota'd volume (nil entry
	// or absent = unlimited); rebuilt by applyVolumes.
	buckets map[string]*volume.Bucket

	// vols is this daemon's volume registry view — the authority's own
	// registry on the authority daemon, a replica installed from pushes and
	// polls elsewhere. Has its own lock.
	vols *volume.Registry

	stop chan struct{}
	done chan struct{}
}

// NewMember builds the member around the initial map (the authority
// daemon's own, or the one a joining daemon fetched at startup). File sets
// assigned to this daemon that already exist on its disk are ready
// immediately.
func NewMember(cfg MemberConfig, initial *placement.ClusterMap) (*Member, error) {
	if cfg.Cluster == nil || cfg.Disk == nil {
		return nil, fmt.Errorf("fleet: member needs a cluster and a disk")
	}
	if err := initial.Validate(); err != nil {
		return nil, err
	}
	if _, ok := initial.Daemon(cfg.ID); !ok {
		return nil, fmt.Errorf("fleet: daemon %d is not in the cluster map", cfg.ID)
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = DefaultPollInterval
	}
	if cfg.Speed == 0 {
		cfg.Speed = 1
	}
	if !(cfg.Speed > 0) {
		return nil, fmt.Errorf("fleet: daemon %d speed %v must be > 0", cfg.ID, cfg.Speed)
	}
	probeDial := cfg.Dial
	if cfg.Dial == nil {
		cfg.Dial = func(addr string) (*wire.Client, error) {
			c, err := wire.DialTimeout(addr, DefaultDialTimeout)
			if err != nil {
				return nil, err
			}
			c.SetTimeout(DefaultHandoffTimeout)
			return c, nil
		}
		probeDial = func(addr string) (*wire.Client, error) {
			return wire.DialTimeout(addr, DefaultProbeTimeout)
		}
	}
	m := &Member{
		cfg:         cfg,
		probeDial:   probeDial,
		cur:         initial,
		lastContact: time.Now(),
		ready:       map[string]bool{},
		inflight:    map[string]int{},
		buckets:     map[string]*volume.Bucket{},
		vols:        volume.NewRegistry(),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	if cfg.Authority != nil {
		m.vols = cfg.Authority.vols
		cfg.Authority.obs = cfg.Obs
	}
	m.applyVolumes()
	onDisk := map[string]bool{}
	for _, fs := range cfg.Disk.FileSets() {
		onDisk[fs] = true
	}
	for _, fs := range initial.FileSetsOf(cfg.ID) {
		if onDisk[fs] {
			m.ready[fs] = true
		}
	}
	if cfg.Obs != nil {
		m.handoffH = cfg.Obs.Hist.Get("fleet_handoff_seconds", "")
		cfg.Obs.AddGauges(func() []obs.Gauge {
			cm := m.CurrentMap()
			m.mu.Lock()
			nReady := len(m.ready)
			m.mu.Unlock()
			return []obs.Gauge{
				{Name: "fleet_map_epoch", Value: float64(cm.Epoch)},
				{Name: "fleet_ready_filesets", Value: float64(nReady)},
				{Name: "fleet_daemon_id", Value: float64(m.cfg.ID)},
			}
		})
	}
	return m, nil
}

// Start launches the join-mode poll loop (a no-op on the authority daemon,
// whose map is locally authoritative) and, on the authority daemon, the
// authority's failure detector.
func (m *Member) Start() {
	if m.cfg.Authority != nil {
		m.cfg.Authority.Start()
	}
	if m.cfg.AuthorityAddr == "" {
		close(m.done)
		return
	}
	go m.pollLoop()
}

// Stop terminates the poll loop (and the hosted authority's detector).
func (m *Member) Stop() {
	select {
	case <-m.stop:
	default:
		close(m.stop)
	}
	<-m.done
	if m.cfg.Authority != nil {
		m.cfg.Authority.Stop()
	}
}

// CurrentMap returns the newest map this daemon has seen.
func (m *Member) CurrentMap() *placement.ClusterMap {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cfg.Authority != nil {
		return m.cfg.Authority.Map()
	}
	return m.cur
}

// pollLoop refetches the map from the authority — the backstop behind
// eager pushes, and what converges a daemon that missed a push (e.g. it
// was restarting).
func (m *Member) pollLoop() {
	defer close(m.done)
	backoff := wire.NewBackoff(m.cfg.PollInterval, 10*m.cfg.PollInterval)
	for {
		select {
		case <-m.stop:
			return
		case <-time.After(backoff.Next()):
		}
		if m.pollOnce() {
			backoff.Reset()
		}
	}
}

// authorityCandidates lists the addresses where an authority might answer,
// preference first: the current map's advertised authority daemon, the
// configured primary, the configured standby. Duplicates are dropped.
func (m *Member) authorityCandidates() []string {
	var out []string
	seen := map[string]bool{}
	add := func(addr string) {
		if addr != "" && !seen[addr] {
			seen[addr] = true
			out = append(out, addr)
		}
	}
	if d, ok := m.CurrentMap().AuthorityDaemon(); ok {
		add(d.Addr)
	}
	add(m.cfg.AuthorityAddr)
	add(m.cfg.StandbyAddr)
	return out
}

// pollOnce probes one authority candidate — a membership heartbeat when
// this daemon advertises an address, a bare epoch probe otherwise — and
// fetches the full map when the authority's epoch is newer. A failed probe
// rotates to the next candidate (primary → standby → …). Returns true on a
// successful probe (fresh or not).
func (m *Member) pollOnce() bool {
	cands := m.authorityCandidates()
	if len(cands) == 0 {
		return false
	}
	m.mu.Lock()
	addr := cands[m.authIdx%len(cands)]
	m.mu.Unlock()
	ok := m.probe(addr)
	m.mu.Lock()
	if ok {
		m.authIdx = 0
		m.lastContact = time.Now()
	} else {
		m.authIdx++
	}
	m.mu.Unlock()
	return ok
}

// probe runs one dial + heartbeat/epoch exchange against addr.
func (m *Member) probe(addr string) bool {
	c, err := m.probeDial(addr)
	if err != nil {
		return false
	}
	defer c.Close()
	var epoch uint64
	if m.cfg.Addr != "" {
		epoch, err = c.Heartbeat(m.cfg.ID, m.cfg.Addr, m.cfg.Speed, m.cfg.JournalDir)
		if err != nil && wire.ErrorCode(err) == wire.CodeJoinFirst {
			// The authority's map does not list us with our journal dir: we
			// were declared dead (and restarted), a promoted standby resumed a
			// map from before we joined, or we were roster-seeded without the
			// dir. Re-register; the join reply carries the new map (and
			// the volume registry — a promoted standby's quotas must bind
			// here, before this daemon serves another op).
			jresp, jerr := c.Call(wire.Request{Op: wire.OpJoin, Daemon: m.cfg.ID,
				Addr: m.cfg.Addr, Speed: m.cfg.Speed, JournalDir: m.cfg.JournalDir})
			if jerr != nil {
				return false
			}
			cm, derr := placement.DecodeClusterMap(jresp.Map)
			if derr != nil {
				return false
			}
			m.cfg.Obs.Counter(CtrRejoins).Add(1)
			m.installVolumes(jresp.Volumes, jresp.VolumesVersion)
			m.adoptMap(cm)
			return true
		}
	} else {
		epoch, err = c.MapEpoch()
	}
	if err != nil {
		return false
	}
	if epoch <= m.CurrentMap().Epoch {
		return true
	}
	// Full fetch: the OpMap reply carries the volume registry alongside the
	// map, so one poll converges both.
	mresp, err := c.Call(wire.Request{Op: wire.OpMap})
	if err != nil {
		return false
	}
	cm, err := placement.DecodeClusterMap(mresp.Map)
	if err != nil {
		return false
	}
	m.installVolumes(mresp.Volumes, mresp.VolumesVersion)
	m.adoptMap(cm)
	return true
}

// adoptMap installs a validated map if it is newer than the current one.
func (m *Member) adoptMap(cm *placement.ClusterMap) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.adoptMapLocked(cm)
}

func (m *Member) adoptMapLocked(cm *placement.ClusterMap) {
	if cm.Epoch <= m.cur.Epoch {
		return
	}
	m.cur = cm
	m.cfg.Obs.Counter(CtrMapRefreshes).Add(1)
}

// Gate implements wire.FleetHandler: it admits or rejects one
// file-set-addressed operation under the current map. See the interface
// docs for the contract; the release closure is where a create-fileset
// marks its file set ready.
func (m *Member) Gate(op wire.Op, fileSet string) (func(), error) {
	m.mu.Lock()
	if m.cfg.FenceAfter > 0 && m.cfg.AuthorityAddr != "" && time.Since(m.lastContact) > m.cfg.FenceAfter {
		// Partitioned from every authority for longer than the fence
		// window: our file sets may already be serving elsewhere, so an ack
		// from here could be a write the new owner never sees. Stop
		// acknowledging anything until a probe succeeds.
		since := time.Since(m.lastContact).Round(time.Millisecond)
		m.mu.Unlock()
		return nil, fmt.Errorf("fleet: daemon %d self-fenced: no authority contact for %s", m.cfg.ID, since)
	}
	cm := m.cur
	if m.cfg.Authority != nil {
		cm = m.cfg.Authority.Map()
		m.adoptMapLocked(cm)
	}
	owner, placed := cm.Assign[fileSet]
	if !placed {
		m.mu.Unlock()
		return nil, wire.Unplaced(fmt.Errorf("%s %q (epoch %d): assign it to a daemon first (anufsctl assign)",
			unplacedMsg, fileSet, cm.Epoch))
	}
	if owner != m.cfg.ID {
		m.cfg.Obs.Counter(CtrWrongOwner).Add(1)
		m.mu.Unlock()
		return nil, &wire.WrongOwnerError{Epoch: cm.Epoch}
	}
	if !m.ready[fileSet] && op != wire.OpCreateFileSet {
		m.cfg.Obs.Counter(CtrArrivingRejects).Add(1)
		m.mu.Unlock()
		return nil, wire.ErrArriving
	}
	// Op-rate quota: one token bucket per volume per daemon (the authority
	// cannot see per-op traffic, so the rate is enforced where the ops
	// land). Checked after ownership so only the serving daemon ever emits
	// quota-exceeded for an op.
	vol := namespace.VolumeOf(fileSet)
	if b := m.buckets[vol]; b != nil && !b.Allow() {
		m.cfg.Obs.Counter(CtrQuotaDenials).Add(1)
		m.mu.Unlock()
		return nil, wire.QuotaExceeded(fmt.Errorf(
			"fleet: volume %q over its op-rate quota (%g ops/s per daemon)", vol, b.Rate()))
	}
	m.inflight[fileSet]++
	m.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			m.mu.Lock()
			m.inflight[fileSet]--
			if op == wire.OpCreateFileSet && !m.ready[fileSet] {
				// Mark ready only if the create actually materialized the
				// file set (the cluster op may have failed).
				for _, fs := range m.cfg.Disk.FileSets() {
					if fs == fileSet {
						m.ready[fileSet] = true
						break
					}
				}
			}
			m.mu.Unlock()
		})
	}, nil
}

// Fleet implements wire.FleetHandler: dispatch for the fleet ops.
func (m *Member) Fleet(req wire.Request) wire.Response {
	var resp wire.Response
	fail := func(err error) wire.Response { return wire.Fail(resp, err) }
	switch req.Op {
	case wire.OpMap:
		encoded, err := m.CurrentMap().Encode()
		if err != nil {
			return fail(err)
		}
		resp.Map = encoded
		resp.Epoch = m.CurrentMap().Epoch
		// Volume registry rides every map fetch: pollers converge on quotas
		// and weights with the same RPC that converges the map.
		resp.Volumes, resp.VolumesVersion = m.vols.List()
	case wire.OpMapEpoch:
		resp.Epoch = m.CurrentMap().Epoch
	case wire.OpAdopt:
		if err := m.handleAdopt(req); err != nil {
			return fail(err)
		}
		resp.Epoch = m.CurrentMap().Epoch
	case wire.OpHandoff:
		if err := m.handleHandoff(req); err != nil {
			return fail(err)
		}
		resp.Epoch = m.CurrentMap().Epoch
	case wire.OpAssign:
		if m.cfg.Authority == nil {
			return fail(fmt.Errorf("fleet: daemon %d is not the authority", m.cfg.ID))
		}
		epoch, err := m.cfg.Authority.Assign(req.FileSet, req.Daemon)
		if err != nil {
			return fail(err)
		}
		resp.Epoch = epoch
	case wire.OpRebalance:
		if m.cfg.Authority == nil {
			return fail(fmt.Errorf("fleet: daemon %d is not the authority", m.cfg.ID))
		}
		epoch, err := m.cfg.Authority.Rebalance()
		if err != nil {
			return fail(err)
		}
		resp.Epoch = epoch
	case wire.OpJoin:
		if m.cfg.Authority == nil {
			return fail(fmt.Errorf("fleet: daemon %d is not the authority", m.cfg.ID))
		}
		cm, err := m.cfg.Authority.Join(req.Daemon, req.Addr, req.Speed, req.JournalDir)
		if err != nil {
			return fail(err)
		}
		encoded, err := cm.Encode()
		if err != nil {
			return fail(err)
		}
		resp.Map = encoded
		resp.Epoch = cm.Epoch
		resp.Volumes, resp.VolumesVersion = m.vols.List()
	case wire.OpLeave:
		if m.cfg.Authority == nil {
			return fail(fmt.Errorf("fleet: daemon %d is not the authority", m.cfg.ID))
		}
		epoch, err := m.cfg.Authority.Leave(req.Daemon)
		if err != nil {
			return fail(err)
		}
		resp.Epoch = epoch
	case wire.OpHeartbeat:
		if m.cfg.Authority == nil {
			return fail(fmt.Errorf("fleet: daemon %d is not the authority", m.cfg.ID))
		}
		epoch, err := m.cfg.Authority.Heartbeat(req.Daemon, req.JournalDir)
		if err != nil {
			return fail(err)
		}
		resp.Epoch = epoch
	case wire.OpTakeover:
		if err := m.handleTakeover(req); err != nil {
			return fail(err)
		}
		resp.Epoch = m.CurrentMap().Epoch
	case wire.OpVolumeCreate:
		if m.cfg.Authority == nil {
			return fail(fmt.Errorf("fleet: daemon %d is not the authority", m.cfg.ID))
		}
		epoch, err := m.cfg.Authority.VolumeCreate(req.Volume)
		if err != nil {
			return fail(err)
		}
		m.applyVolumes()
		resp.Epoch = epoch
	case wire.OpVolumeDelete:
		if m.cfg.Authority == nil {
			return fail(fmt.Errorf("fleet: daemon %d is not the authority", m.cfg.ID))
		}
		epoch, err := m.cfg.Authority.VolumeDelete(req.Volume)
		if err != nil {
			return fail(err)
		}
		m.applyVolumes()
		resp.Epoch = epoch
	case wire.OpVolumeList:
		if m.cfg.Authority == nil {
			return fail(fmt.Errorf("fleet: daemon %d is not the authority", m.cfg.ID))
		}
		resp.Volumes, resp.VolumesVersion = m.cfg.Authority.Volumes()
		resp.Epoch = m.CurrentMap().Epoch
	case wire.OpVolumeSetQuota:
		if m.cfg.Authority == nil {
			return fail(fmt.Errorf("fleet: daemon %d is not the authority", m.cfg.ID))
		}
		q := volume.Quota{MaxFileSets: req.MaxFileSets, OpRate: req.OpRate}
		epoch, err := m.cfg.Authority.VolumeSetQuota(req.Volume, q, req.Weight)
		if err != nil {
			return fail(err)
		}
		m.applyVolumes()
		resp.Epoch = epoch
	case wire.OpVolumeSetPolicy:
		if m.cfg.Authority == nil {
			return fail(fmt.Errorf("fleet: daemon %d is not the authority", m.cfg.ID))
		}
		epoch, err := m.cfg.Authority.VolumeSetPolicy(req.Volume, req.Policy)
		if err != nil {
			return fail(err)
		}
		m.applyVolumes()
		resp.Epoch = epoch
	default:
		return fail(fmt.Errorf("fleet: unknown fleet op %q", req.Op))
	}
	return resp
}

// handleAdopt serves OpAdopt: a map-only push (no FileSet) or a donated
// file set arriving with its image and the map of the handoff's epoch.
func (m *Member) handleAdopt(req wire.Request) error {
	// A pushed volume registry installs independently of the map's fate:
	// its own version check makes stale snapshots no-ops.
	m.installVolumes(req.Volumes, req.VolumesVersion)
	var cm *placement.ClusterMap
	if len(req.Map) > 0 {
		var err error
		cm, err = placement.DecodeClusterMap(req.Map)
		if err != nil {
			return err
		}
	}
	if req.FileSet == "" {
		// Map-only push from the authority.
		if cm == nil {
			return fmt.Errorf("fleet: adopt without file set or map")
		}
		m.adoptMap(cm)
		return nil
	}
	if cm == nil {
		return fmt.Errorf("fleet: adopt of %q carries no cluster map", req.FileSet)
	}
	if id, ok := cm.Assign[req.FileSet]; !ok || id != m.cfg.ID {
		return fmt.Errorf("fleet: adopt map (epoch %d) does not assign %q to daemon %d",
			cm.Epoch, req.FileSet, m.cfg.ID)
	}
	m.mu.Lock()
	if req.Epoch < m.cur.Epoch {
		cur := m.cur.Epoch
		m.mu.Unlock()
		return fmt.Errorf("fleet: stale adopt of %q at epoch %d (daemon %d at epoch %d)",
			req.FileSet, req.Epoch, m.cfg.ID, cur)
	}
	if m.ready[req.FileSet] && m.cur.Epoch >= req.Epoch {
		// Idempotent retry of a handoff that already completed.
		m.mu.Unlock()
		return nil
	}
	m.mu.Unlock()

	images, err := journal.DecodeImages(req.Snap)
	if err != nil {
		return fmt.Errorf("fleet: adopt of %q: decode image: %w", req.FileSet, err)
	}
	im, ok := images[req.FileSet]
	if !ok {
		return fmt.Errorf("fleet: adopt of %q: image missing from snapshot", req.FileSet)
	}
	installer, ok := m.cfg.Disk.(sharedisk.Installer)
	if !ok {
		return fmt.Errorf("fleet: disk %T cannot install images", m.cfg.Disk)
	}
	if err := installer.Install(req.FileSet, im); err != nil {
		return fmt.Errorf("fleet: adopt of %q: %w", req.FileSet, err)
	}
	if err := m.cfg.Cluster.AdoptFileSet(req.FileSet); err != nil {
		return fmt.Errorf("fleet: adopt of %q: %w", req.FileSet, err)
	}
	// Serve first, then converge the map: until the map flips, the gate
	// still answers wrong-owner (the donor's fence epoch), which routers
	// already handle. Flipping last means no window where the map says
	// "mine" but the file set is not yet served.
	m.mu.Lock()
	m.ready[req.FileSet] = true
	m.adoptMapLocked(cm)
	m.mu.Unlock()
	m.cfg.Obs.Counter(CtrAdopts).Add(1)
	return nil
}

// handleTakeover serves OpTakeover: adopt file sets from a daemon the
// authority declared dead. The lost-write window closes here — before
// serving, we replay the victim's journal directory on the shared disk
// (read-only: journal.Recover never mutates, so a victim that is merely
// partitioned does not get its journal clobbered) and install the durable
// images it describes. A file set absent from the replay (victim ran
// volatile, or never flushed it) is adopted empty and counted.
func (m *Member) handleTakeover(req wire.Request) error {
	if len(req.FileSets) == 0 {
		return fmt.Errorf("fleet: takeover without file sets")
	}
	cm, err := placement.DecodeClusterMap(req.Map)
	if err != nil {
		return err
	}
	if cm.Epoch != req.Epoch {
		return fmt.Errorf("fleet: takeover epoch %d does not match its map (epoch %d)", req.Epoch, cm.Epoch)
	}
	for _, fs := range req.FileSets {
		if id, ok := cm.Assign[fs]; !ok || id != m.cfg.ID {
			return fmt.Errorf("fleet: takeover map (epoch %d) does not assign %q to daemon %d",
				cm.Epoch, fs, m.cfg.ID)
		}
	}
	m.mu.Lock()
	if req.Epoch < m.cur.Epoch {
		cur := m.cur.Epoch
		m.mu.Unlock()
		return fmt.Errorf("fleet: stale takeover at epoch %d (daemon %d at epoch %d)",
			req.Epoch, m.cfg.ID, cur)
	}
	m.mu.Unlock()

	images := map[string]sharedisk.Image{}
	if req.JournalDir != "" {
		st, _, err := journal.Recover(req.JournalDir)
		if err != nil {
			// Refusing is the safe failure: adopting without the replay
			// would re-open the lost-write window the takeover exists to
			// close. The authority falls back to another candidate or
			// leaves the file sets unplaced for the operator.
			return fmt.Errorf("fleet: takeover replay of %s: %w", req.JournalDir, err)
		}
		images = st.Images()
	}
	installer, ok := m.cfg.Disk.(sharedisk.Installer)
	if !ok {
		return fmt.Errorf("fleet: disk %T cannot install images", m.cfg.Disk)
	}
	for _, fs := range req.FileSets {
		im, found := images[fs]
		if !found {
			m.cfg.Obs.Counter(CtrTakeoverEmpty).Add(1)
		}
		if err := installer.Install(fs, im); err != nil {
			return fmt.Errorf("fleet: takeover install of %q: %w", fs, err)
		}
		if err := m.cfg.Cluster.AdoptFileSet(fs); err != nil {
			return fmt.Errorf("fleet: takeover adopt of %q: %w", fs, err)
		}
	}
	m.mu.Lock()
	for _, fs := range req.FileSets {
		m.ready[fs] = true
	}
	m.adoptMapLocked(cm)
	m.mu.Unlock()
	m.cfg.Obs.Counter(CtrTakeovers).Add(int64(len(req.FileSets)))
	return nil
}

// handleHandoff serves OpHandoff on the donor: fence, drain, flush,
// transfer, and (on success) drop the local copy. On any failure before
// the recipient has adopted, the donor rolls itself back and keeps
// serving, and the authority discards the candidate map.
func (m *Member) handleHandoff(req wire.Request) error {
	start := time.Now()
	err := m.donate(req)
	if err != nil {
		m.cfg.Obs.Counter(CtrHandoffFailures).Add(1)
		return err
	}
	m.cfg.Obs.Counter(CtrHandoffs).Add(1)
	if m.handoffH != nil {
		m.handoffH.Observe(time.Since(start))
	}
	return nil
}

func (m *Member) donate(req wire.Request) error {
	fs := req.FileSet
	cm, err := placement.DecodeClusterMap(req.Map)
	if err != nil {
		return err
	}
	if cm.Epoch != req.Epoch {
		return fmt.Errorf("fleet: handoff epoch %d does not match its map (epoch %d)", req.Epoch, cm.Epoch)
	}
	if id, ok := cm.Assign[fs]; !ok || id == m.cfg.ID {
		return fmt.Errorf("fleet: handoff map still assigns %q to donor %d", fs, m.cfg.ID)
	}

	// Fence: adopt the handoff map now. From this instant the gate rejects
	// new operations on fs with wrong-owner(new epoch); operations admitted
	// earlier are drained below, so every acknowledged write is in the
	// flush the recipient adopts.
	m.mu.Lock()
	if req.Epoch <= m.cur.Epoch {
		cur := m.cur.Epoch
		m.mu.Unlock()
		return fmt.Errorf("fleet: stale handoff of %q at epoch %d (daemon %d at epoch %d)",
			fs, req.Epoch, m.cfg.ID, cur)
	}
	if !m.ready[fs] {
		m.mu.Unlock()
		return fmt.Errorf("fleet: daemon %d does not serve %q", m.cfg.ID, fs)
	}
	prev := m.cur
	m.adoptMapLocked(cm)
	delete(m.ready, fs)
	m.mu.Unlock()

	rollback := func(reAdopt bool) {
		m.mu.Lock()
		// Restore the pre-handoff map unless something even newer arrived
		// while we were failing.
		if m.cur.Epoch == cm.Epoch {
			m.cur = prev
		}
		m.ready[fs] = true
		m.mu.Unlock()
		if reAdopt {
			_ = m.cfg.Cluster.AdoptFileSet(fs)
		}
	}

	if err := m.drain(fs); err != nil {
		rollback(false)
		return err
	}
	// Flush the consistent cut (release serializes behind every admitted
	// operation through the owner queue) and stop serving.
	if err := m.cfg.Cluster.ReleaseFileSet(fs); err != nil {
		rollback(false)
		return fmt.Errorf("fleet: release %q: %w", fs, err)
	}
	im, err := m.cfg.Disk.Load(fs)
	if err != nil {
		rollback(true)
		return fmt.Errorf("fleet: load %q for transfer: %w", fs, err)
	}
	snap := journal.EncodeImages(map[string]sharedisk.Image{fs: im})

	c, err := m.cfg.Dial(req.Addr)
	if err != nil {
		rollback(true)
		// Coded so the authority's rebalance circuit breaker can attribute
		// the failure to the recipient without parsing the message.
		return &wire.CodedError{Code: wire.CodeDialRecipient,
			Err: fmt.Errorf("fleet: dial recipient %s: %w", req.Addr, err)}
	}
	defer c.Close()
	if err := c.Adopt(req.Epoch, fs, snap, req.Map); err != nil {
		// NOTE: if this error is a timeout the recipient may in fact have
		// adopted — the authority keeps the old map, the recipient holds an
		// orphaned copy it does not serve (its map never flips), and the
		// next successful handoff re-installs over it. Documented in
		// DESIGN.md §12.
		rollback(true)
		return fmt.Errorf("fleet: recipient adopt of %q: %w", fs, err)
	}

	// The recipient serves fs now; drop our copy (journaled, so a restart
	// cannot resurrect it). Failure is counted, not fatal: the map fence
	// already keeps this daemon from ever serving fs again.
	if dropper, ok := m.cfg.Disk.(sharedisk.Dropper); ok {
		if err := dropper.DropFileSet(fs); err != nil {
			m.cfg.Obs.Counter(CtrDropFailures).Add(1)
		}
	} else {
		m.cfg.Obs.Counter(CtrDropFailures).Add(1)
	}
	return nil
}

// drain waits for gate-admitted operations on fs to finish. Admissions
// stopped when the fence flipped the map, so the count only decreases.
func (m *Member) drain(fs string) error {
	deadline := time.Now().Add(m.cfg.DrainTimeout)
	for {
		m.mu.Lock()
		n := m.inflight[fs]
		m.mu.Unlock()
		if n == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet: drain of %q timed out with %d operations in flight", fs, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// String identifies the member in logs.
func (m *Member) String() string { return "fleet-member-" + strconv.Itoa(m.cfg.ID) }
