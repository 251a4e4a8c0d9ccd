// Package fleet shards anufs across N independent anufsd processes: each
// daemon owns a subset of file sets, an epoch-numbered cluster map derived
// from the ANU mapper (internal/placement) is the routing plane, and file
// sets move between daemons by live handoff — the donor drains and flushes,
// the recipient adopts the image, and the donor fences its copy.
//
// Roles: the Authority (hosted by one daemon) owns the map and orchestrates
// handoffs; every daemon runs a Member that fences wire operations against
// the map and serves the fleet ops; clients route through a Router that
// caches the map and refetches on wrong-owner rejections.
//
// Membership is dynamic: daemons join and leave over the wire (OpJoin,
// OpLeave), renew liveness leases with OpHeartbeat, and a daemon whose
// lease lapses is failed over — the authority moves its file sets to new
// owners that replay the victim's journal tail from shared disk before
// serving (OpTakeover), so acknowledged writes survive kill -9. The map
// itself can be journaled (AuthorityConfig.Persist) and log-shipped to a
// standby authority that resumes it after promotion (Resume/EpochFloor).
package fleet

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"anufs/internal/core"
	"anufs/internal/election"
	"anufs/internal/obs"
	"anufs/internal/placement"
	"anufs/internal/volume"
	"anufs/internal/wire"
)

// DefaultHandoffTimeout bounds one donor handoff call (drain + flush +
// transfer + adopt) as seen by the authority.
const DefaultHandoffTimeout = 60 * time.Second

// DefaultDialTimeout bounds the TCP connect to a handoff donor, so a dead
// daemon costs seconds (and trips the rebalance circuit breaker), not the
// full handoff timeout.
const DefaultDialTimeout = 5 * time.Second

// DefaultPublishTimeout is the per-daemon dial + call deadline on the
// publish path; DefaultPublishWait caps how long one publish round blocks
// its caller (stragglers keep trying in the background up to their own
// deadlines — member polling is the convergence backstop). Takeovers dial
// with the same short connect deadline but then widen the call deadline to
// DefaultHandoffTimeout: the recipient replays the victim's whole journal
// before replying, which a publish-sized deadline would misread as a
// refusal on any non-trivial journal.
const (
	DefaultPublishTimeout = 1 * time.Second
	DefaultPublishWait    = 2 * time.Second
)

// PromotionEpochJump is how far a promoted standby authority advances the
// epoch past the last map it saw. The primary may have committed (and even
// acted on) epochs the ship stream never delivered; the jump keeps every
// epoch the promoted authority issues strictly above anything the dead
// primary could have published.
const PromotionEpochJump = 1000

// AuthorityConfig parameterizes the map authority.
type AuthorityConfig struct {
	// Daemons seeds the fleet: every anufsd process known at startup, with
	// address and relative speed (> 0). Daemons added later join over the
	// wire (OpJoin); ignored when Resume is set.
	Daemons []placement.DaemonInfo
	// FileSets seeds the initial assignment, placed by the ANU mapper over
	// the daemon IDs with speed-proportional shares. Ignored when Resume is
	// set.
	FileSets []string
	// Core configures the ANU mapper; zero value takes core.Defaults().
	Core core.Config
	// SelfID is the ID of the daemon hosting this authority — published in
	// the map's Authority field so members and routers can find the
	// authority after a standby promotion. Defaults to 0, the historical
	// convention.
	SelfID int
	// Dial overrides how the authority reaches other daemons (tests inject
	// failures and see every outbound connection); nil uses
	// wire.DialTimeout(addr, DefaultDialTimeout) with DefaultHandoffTimeout
	// per call for handoffs, and wire.DialTimeout(addr, PublishTimeout) for
	// map publishes and failover takeovers (takeovers widen the per-call
	// deadline after the dial — only the connect stays fast).
	Dial func(addr string) (*wire.Client, error)
	// PublishTimeout and PublishWait default to the package constants.
	PublishTimeout time.Duration
	PublishWait    time.Duration
	// Lease enables heartbeat failure detection when > 0: a daemon that
	// does not heartbeat within one lease (after StartupGrace) is declared
	// dead and failed over. Zero disables the detector — membership changes
	// only through explicit join/leave, the pre-elastic behavior.
	Lease time.Duration
	// StartupGrace suppresses failure detection for this long after Start,
	// covering the window before members begin heartbeating. Defaults to
	// 4x Lease.
	StartupGrace time.Duration
	// Persist, when non-nil, is called with every committed map before it
	// becomes current — the replication hook (anufsd journals the map as a
	// pseudo file set, which the existing log shipper then carries to the
	// standby). Persist failures are counted, not fatal: replication
	// degrades, serving does not.
	Persist func(cm *placement.ClusterMap) error
	// PersistVolumes is Persist's analogue for the volume registry: called
	// with every mutated registry snapshot (anufsd journals it as the
	// __volumes/registry pseudo file set, which log shipping carries to the
	// standby). Failures are counted, not fatal.
	PersistVolumes func(vols []volume.Info, version uint64) error
	// Resume, when non-nil, seeds membership and assignment from a
	// previously persisted map instead of Daemons/FileSets — the promoted
	// standby's path back to authority.
	Resume *placement.ClusterMap
	// ResumeVolumes seeds the volume registry from a previously persisted
	// snapshot (the __volumes/registry image a standby replicated), so
	// quotas and weights survive authority failover. Empty starts fresh
	// with only the default volume.
	ResumeVolumes        []volume.Info
	ResumeVolumesVersion uint64
	// EpochFloor forces the first committed epoch strictly above this
	// value (promotion sets Resume.Epoch + PromotionEpochJump).
	EpochFloor uint64
	// AnnounceOnStart publishes the current map once, asynchronously, when
	// Start runs — how a promoted standby tells surviving daemons where the
	// authority lives now.
	AnnounceOnStart bool
}

// Authority owns the cluster map: it computes assignments from the ANU
// mapper, bumps the epoch on every change, and orchestrates live handoffs
// with the donor daemons. Exactly one daemon in a fleet hosts it.
type Authority struct {
	dial     func(addr string) (*wire.Client, error)
	dialFast func(addr string) (*wire.Client, error)

	// cur holds the current *placement.ClusterMap. It is an atomic, not
	// guarded by mu, so Map() never blocks on an in-flight reconfiguration
	// — a handoff whose recipient is the authority daemon itself reads the
	// map from inside the RPC the authority is waiting on.
	cur atomic.Value

	// obs is the hosting daemon's registry: NewMember sets it when handed
	// this authority, before either is started. Nil counts nowhere.
	obs *obs.Registry
	// elector tracks member liveness leases (nil when Lease == 0).
	elector *election.Elector
	// vols is the authoritative volume registry (its own lock; mutations
	// bump the map epoch through volumesChanged).
	vols *volume.Registry

	// mu serializes reconfigurations (assign/rebalance/join/leave/failover).
	mu      sync.Mutex
	cfg     AuthorityConfig
	mapper  *core.Mapper
	daemons map[int]placement.DaemonInfo
	// issued is the highest epoch ever composed into a candidate map,
	// committed or not (guarded by mu). Epochs are reserved, never reused:
	// an abandoned candidate may still have been installed by its
	// recipient (the RPC timed out after the server-side adopt), so a
	// later map with different contents must carry a strictly higher
	// epoch or that recipient would never converge to it.
	issued uint64
	// dirs maps daemon ID → its journal directory on the shared disk, as
	// reported by join/heartbeat — what a takeover recipient replays when
	// the daemon dies. Empty means volatile: failover adopts empty images.
	// Guarded by dirsMu, not mu, so the heartbeat path never queues behind
	// a reconfiguration holding mu across network RPCs (dirsMu nests
	// inside mu; never take mu while holding dirsMu).
	dirsMu  sync.Mutex
	dirs    map[int]string
	started time.Time

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewAuthority builds the authority and its initial map. No daemons are
// contacted; the initial assignment is what the daemons themselves fetch
// (or compute locally, for the authority daemon) at startup.
func NewAuthority(cfg AuthorityConfig) (*Authority, error) {
	seed := cfg.Daemons
	var epoch0 uint64
	if cfg.Resume != nil {
		if err := cfg.Resume.Validate(); err != nil {
			return nil, fmt.Errorf("fleet: resume map: %w", err)
		}
		seed = cfg.Resume.Daemons
		epoch0 = cfg.Resume.Epoch
	}
	if len(seed) == 0 {
		return nil, fmt.Errorf("fleet: authority needs at least one daemon")
	}
	if cfg.Core.Gamma == 0 {
		cfg.Core = core.Defaults()
	}
	if cfg.PublishTimeout <= 0 {
		cfg.PublishTimeout = DefaultPublishTimeout
	}
	if cfg.PublishWait <= 0 {
		cfg.PublishWait = DefaultPublishWait
	}
	if cfg.StartupGrace <= 0 {
		cfg.StartupGrace = 4 * cfg.Lease
	}
	daemons := make(map[int]placement.DaemonInfo, len(seed))
	ids := make([]int, 0, len(seed))
	for _, d := range seed {
		if _, dup := daemons[d.ID]; dup {
			return nil, fmt.Errorf("fleet: duplicate daemon id %d", d.ID)
		}
		// !(x > 0) rather than x <= 0: NaN speeds must be rejected too.
		if !(d.Speed > 0) {
			return nil, fmt.Errorf("fleet: daemon %d speed %v must be > 0", d.ID, d.Speed)
		}
		daemons[d.ID] = d
		ids = append(ids, d.ID)
	}
	sort.Ints(ids)
	mapper, err := core.NewMapper(cfg.Core, ids)
	if err != nil {
		return nil, err
	}
	a := &Authority{
		dial:     cfg.Dial,
		dialFast: cfg.Dial,
		vols:     volume.NewRegistry(),
		cfg:      cfg,
		mapper:   mapper,
		daemons:  daemons,
		dirs:     map[int]string{},
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if len(cfg.ResumeVolumes) > 0 {
		a.vols.Install(cfg.ResumeVolumes, cfg.ResumeVolumesVersion)
	}
	if cfg.Lease > 0 {
		a.elector = election.New(cfg.Lease, nil)
	}
	if a.dial == nil {
		a.dial = func(addr string) (*wire.Client, error) {
			c, err := wire.DialTimeout(addr, DefaultDialTimeout)
			if err != nil {
				return nil, err
			}
			c.SetTimeout(DefaultHandoffTimeout)
			return c, nil
		}
		a.dialFast = func(addr string) (*wire.Client, error) {
			return wire.DialTimeout(addr, a.cfg.PublishTimeout)
		}
	}
	if err := a.rescaleBySpeed(); err != nil {
		return nil, err
	}
	assign := map[string]int{}
	if cfg.Resume != nil {
		for fs, id := range cfg.Resume.Assign {
			assign[fs] = id
		}
	} else {
		for _, fs := range cfg.FileSets {
			assign[fs] = a.mapper.Owner(fs)
		}
	}
	epoch := epoch0 + 1
	if epoch <= cfg.EpochFloor {
		epoch = cfg.EpochFloor + 1
	}
	a.issued = epoch
	cm := a.composeLocked(epoch, assign)
	if err := cm.Validate(); err != nil {
		return nil, err
	}
	a.commitLocked(cm)
	return a, nil
}

// nextEpochLocked reserves a fresh epoch for one candidate map, strictly
// above the current map and every candidate ever composed — committed or
// abandoned. Failed reconfigurations leave gaps in the epoch sequence;
// consumers only need monotonicity. Caller holds mu.
func (a *Authority) nextEpochLocked() uint64 {
	e := a.Map().Epoch
	if a.issued > e {
		e = a.issued
	}
	e++
	a.issued = e
	return e
}

// Start launches the heartbeat failure detector (when Lease > 0) and the
// optional announce publish. Idempotent.
func (a *Authority) Start() {
	a.startOnce.Do(func() {
		if a.cfg.AnnounceOnStart {
			go a.publish(a.Map())
		}
		if a.elector == nil {
			close(a.done)
			return
		}
		a.mu.Lock()
		// Everyone starts with a full lease; members renew via OpHeartbeat.
		for id := range a.daemons {
			a.elector.Heartbeat(id)
		}
		a.started = time.Now()
		a.mu.Unlock()
		go a.detectLoop()
	})
}

// Stop terminates the failure detector. Safe to call without Start.
func (a *Authority) Stop() {
	a.stopOnce.Do(func() { close(a.stop) })
	a.startOnce.Do(func() { close(a.done) }) // Start never ran: nothing to wait for
	<-a.done
}

// detectLoop reaps daemons whose liveness lease lapsed and fails over
// their file sets. The authority daemon vouches for itself each tick — it
// is running this loop, so it is alive by construction.
func (a *Authority) detectLoop() {
	defer close(a.done)
	tick := a.cfg.Lease / 4
	if tick <= 0 {
		tick = 250 * time.Millisecond
	}
	for {
		select {
		case <-a.stop:
			return
		case <-time.After(tick):
		}
		a.elector.Heartbeat(a.cfg.SelfID)
		if time.Since(a.started) < a.cfg.StartupGrace {
			continue
		}
		live := map[int]bool{}
		for _, id := range a.elector.Members() {
			live[id] = true
		}
		a.mu.Lock()
		var dead []int
		for id := range a.daemons {
			if id != a.cfg.SelfID && !live[id] {
				dead = append(dead, id)
			}
		}
		sort.Ints(dead)
		for _, id := range dead {
			a.failoverLocked(id)
		}
		cm := a.Map()
		a.mu.Unlock()
		if len(dead) > 0 {
			a.publish(cm)
		}
	}
}

// rescaleBySpeed sets the mapper shares proportional to daemon speeds — the
// paper's heterogeneity-aware starting point (the live tuner would refine
// from here; the fleet map starts at the speed prior). The share set is the
// mapper's current membership, which during a leave/failover excludes a
// daemon still present in the map.
func (a *Authority) rescaleBySpeed() error {
	return placement.RescaleBySpeed(a.mapper, func(id int) float64 { return a.daemons[id].Speed })
}

// composeLocked builds a map at the given epoch carrying an explicit
// assignment (copied). The daemon set is the membership at call time;
// assignment decisions are the caller's — compose never consults the
// mapper, so membership changes cannot silently move file sets without the
// handoff/takeover that makes the move safe. Caller holds mu (or is in the
// constructor).
func (a *Authority) composeLocked(epoch uint64, assign map[string]int) *placement.ClusterMap {
	cm := &placement.ClusterMap{
		Epoch:     epoch,
		Daemons:   make([]placement.DaemonInfo, 0, len(a.daemons)),
		Assign:    make(map[string]int, len(assign)),
		Authority: a.cfg.SelfID,
	}
	for _, d := range a.daemons {
		cm.Daemons = append(cm.Daemons, d)
	}
	sort.Slice(cm.Daemons, func(i, j int) bool { return cm.Daemons[i].ID < cm.Daemons[j].ID })
	for fs, id := range assign {
		cm.Assign[fs] = id
	}
	return cm
}

// commitLocked makes cm the current map, persisting it first when a
// Persist hook is set (the replication path). A persist failure is counted
// and the commit proceeds: the fleet must keep reconfiguring even when the
// map journal is sick.
func (a *Authority) commitLocked(cm *placement.ClusterMap) {
	if a.cfg.Persist != nil {
		if err := a.cfg.Persist(cm); err != nil {
			a.obs.Counter(CtrPersistFailures).Add(1)
		}
	}
	a.cur.Store(cm)
}

// withAssign copies an assignment and reassigns one file set.
func withAssign(assign map[string]int, fileSet string, daemon int) map[string]int {
	out := make(map[string]int, len(assign)+1)
	for fs, id := range assign {
		out[fs] = id
	}
	out[fileSet] = daemon
	return out
}

// Map returns the current cluster map (immutable; callers must not
// mutate). Never blocks, even mid-reconfiguration.
func (a *Authority) Map() *placement.ClusterMap {
	return a.cur.Load().(*placement.ClusterMap)
}

// Epoch returns the current map epoch.
func (a *Authority) Epoch() uint64 { return a.Map().Epoch }

// Join registers daemon id at addr with the given relative speed and
// journal directory, live — no fleet restart. A new daemon starts with no
// file sets (new placements and the next rebalance use it); a known daemon
// re-joining refreshes its record. Returns the resulting map.
func (a *Authority) Join(id int, addr string, speed float64, journalDir string) (*placement.ClusterMap, error) {
	if id < 0 {
		return nil, fmt.Errorf("fleet: join with negative daemon id %d", id)
	}
	if addr == "" {
		return nil, fmt.Errorf("fleet: daemon %d join without an address", id)
	}
	if !(speed > 0) {
		return nil, fmt.Errorf("fleet: daemon %d speed %v must be > 0", id, speed)
	}
	if a.elector != nil {
		a.elector.Heartbeat(id)
	}
	if journalDir != "" {
		a.dirsMu.Lock()
		a.dirs[id] = journalDir
		a.dirsMu.Unlock()
	}
	a.mu.Lock()
	prev, known := a.daemons[id]
	if known && prev.Addr == addr && prev.Speed == speed {
		// Idempotent re-join (e.g. a daemon restarting in place): nothing
		// changed, no epoch bump.
		cm := a.Map()
		a.mu.Unlock()
		return cm, nil
	}
	if !known {
		if err := a.mapper.AddServer(id, 0); err != nil {
			a.mu.Unlock()
			return nil, err
		}
	}
	a.daemons[id] = placement.DaemonInfo{ID: id, Addr: addr, Speed: speed}
	if err := a.rescaleBySpeed(); err != nil {
		if known {
			a.daemons[id] = prev
		} else {
			delete(a.daemons, id)
			_ = a.mapper.RemoveServer(id)
		}
		a.mu.Unlock()
		return nil, err
	}
	cur := a.Map()
	cm := a.composeLocked(a.nextEpochLocked(), cur.Assign)
	a.commitLocked(cm)
	a.obs.Counter(CtrJoins).Add(1)
	a.mu.Unlock()
	a.publish(cm)
	return cm, nil
}

// Leave gracefully decommissions daemon id: every file set it owns is
// handed off (live — the leaver is up and draining) to the remaining
// daemons, then the daemon is dropped from the map. On a failed handoff
// the daemon stays a member with its remaining file sets.
func (a *Authority) Leave(id int) (uint64, error) {
	a.mu.Lock()
	if _, ok := a.daemons[id]; !ok {
		a.mu.Unlock()
		return 0, fmt.Errorf("fleet: unknown daemon %d", id)
	}
	if id == a.cfg.SelfID {
		a.mu.Unlock()
		return 0, fmt.Errorf("fleet: daemon %d hosts the authority and cannot leave", id)
	}
	// Take the leaver out of the placement function first so nothing new
	// lands on it, then drain what it owns.
	if err := a.mapper.RemoveServer(id); err != nil {
		a.mu.Unlock()
		return 0, err
	}
	if err := a.rescaleBySpeed(); err != nil {
		_ = a.mapper.AddServer(id, 0)
		_ = a.rescaleBySpeed()
		a.mu.Unlock()
		return 0, err
	}
	for _, fs := range a.Map().FileSetsOf(id) {
		to := a.mapper.Owner(fs)
		cur := a.Map()
		candidate := a.composeLocked(a.nextEpochLocked(), withAssign(cur.Assign, fs, to))
		if err := a.moveLocked(candidate, fs, id, to); err != nil {
			// Re-admit the leaver: it still owns this file set.
			_ = a.mapper.AddServer(id, 0)
			_ = a.rescaleBySpeed()
			cm := a.Map()
			a.mu.Unlock()
			a.publish(cm)
			return cm.Epoch, fmt.Errorf("fleet: leave of daemon %d: %w", id, err)
		}
	}
	cur := a.Map()
	delete(a.daemons, id)
	a.dirsMu.Lock()
	delete(a.dirs, id)
	a.dirsMu.Unlock()
	if a.elector != nil {
		a.elector.Leave(id)
	}
	cm := a.composeLocked(a.nextEpochLocked(), cur.Assign)
	a.commitLocked(cm)
	a.obs.Counter(CtrLeaves).Add(1)
	a.mu.Unlock()
	a.publish(cm)
	return cm.Epoch, nil
}

// Heartbeat renews daemon id's liveness lease and refreshes its journal
// directory. Unknown daemons get a join-first error (wire.CodeJoinFirst) —
// how a member discovers it was declared dead (or that a promoted standby
// never heard of it) and re-registers.
//
// Deliberately never takes a.mu: reconfigurations (failover, leave,
// rebalance) hold mu across chains of network RPCs, and a heartbeat queued
// behind one would time out at the member's probe deadline — leases would
// lapse because the authority was busy, and the next detector tick would
// declare healthy members dead, cascading the failover. Membership is read
// from the atomic current map instead; during a reconfiguration that is
// the last committed state, which is exactly the view the member acts on.
func (a *Authority) Heartbeat(id int, addr string, speed float64, journalDir string) (uint64, error) {
	cm := a.Map()
	if _, ok := cm.Daemon(id); !ok {
		return 0, &wire.CodedError{Code: wire.CodeJoinFirst,
			Err: fmt.Errorf("fleet: unknown daemon %d: join first", id)}
	}
	if journalDir != "" {
		a.dirsMu.Lock()
		a.dirs[id] = journalDir
		a.dirsMu.Unlock()
	}
	_ = addr // membership changes go through Join; the heartbeat only renews
	_ = speed
	if a.elector != nil {
		a.elector.Heartbeat(id)
	}
	return cm.Epoch, nil
}

// JournalDir reports the journal directory a daemon last advertised
// (tests and anufsctl introspection).
func (a *Authority) JournalDir(id int) string {
	a.dirsMu.Lock()
	defer a.dirsMu.Unlock()
	return a.dirs[id]
}

// Assign pins a file set to a daemon (daemon = -1 places it by the ANU
// mapper). A new file set just joins the map; moving an owned file set runs
// a live handoff with the current owner before the new map commits. Returns
// the resulting epoch.
func (a *Authority) Assign(fileSet string, daemon int) (uint64, error) {
	if fileSet == "" {
		return 0, fmt.Errorf("fleet: assign needs a file set")
	}
	a.mu.Lock()
	cur := a.Map()
	from, owned := cur.Assign[fileSet]
	if !owned {
		if err := a.admitFileSetLocked(cur, fileSet); err != nil {
			a.mu.Unlock()
			return cur.Epoch, err
		}
	}
	if daemon == -1 {
		daemon = a.placeLocked(cur, fileSet, owned)
	}
	if _, ok := a.daemons[daemon]; !ok {
		a.mu.Unlock()
		return 0, fmt.Errorf("fleet: unknown daemon %d", daemon)
	}
	if owned && from == daemon {
		a.mu.Unlock()
		return cur.Epoch, nil // already there
	}
	candidate := a.composeLocked(a.nextEpochLocked(), withAssign(cur.Assign, fileSet, daemon))
	if !owned {
		// A brand-new file set needs no handoff: commit and publish.
		a.commitLocked(candidate)
		a.mu.Unlock()
		a.publish(candidate)
		return candidate.Epoch, nil
	}
	err := a.moveLocked(candidate, fileSet, from, daemon)
	cm := a.Map()
	a.mu.Unlock()
	if err != nil {
		return cm.Epoch, err
	}
	a.publish(cm)
	return cm.Epoch, nil
}

// Rebalance recomputes the whole assignment from the speed-proportional
// ANU mapper, handing off every file set whose owner changes (one epoch
// bump per move, sequentially — a failed move leaves the map at its last
// good epoch). A daemon that cannot be dialed is circuit-broken for the
// rest of the pass: its remaining moves are skipped and listed in the
// returned error, so one dead daemon costs one dial timeout, not one per
// move. Returns the final epoch and the first error.
func (a *Authority) Rebalance() (uint64, error) {
	a.mu.Lock()
	start := a.Map()
	fileSets := make([]string, 0, len(start.Assign))
	for fs := range start.Assign {
		fileSets = append(fileSets, fs)
	}
	sort.Strings(fileSets)
	type move struct {
		fs       string
		from, to int
	}
	var moves []move
	for _, fs := range fileSets {
		want := a.mapper.Owner(fs)
		if have := start.Assign[fs]; have != want {
			moves = append(moves, move{fs: fs, from: have, to: want})
		}
	}
	broken := map[int]bool{}
	var skipped []string
	var firstErr error
	for _, mv := range moves {
		if broken[mv.from] || broken[mv.to] {
			skipped = append(skipped, mv.fs)
			continue
		}
		cur := a.Map()
		candidate := a.composeLocked(a.nextEpochLocked(), withAssign(cur.Assign, mv.fs, mv.to))
		if err := a.moveLocked(candidate, mv.fs, mv.from, mv.to); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			var df *dialFailure
			if errors.As(err, &df) {
				broken[df.daemon] = true
			}
		}
	}
	cm := a.Map()
	a.mu.Unlock()
	a.publish(cm)
	if len(skipped) > 0 {
		return cm.Epoch, fmt.Errorf("fleet: rebalance skipped moves of %s (unreachable daemon): %w",
			strings.Join(skipped, ", "), firstErr)
	}
	return cm.Epoch, firstErr
}

// dialFailure marks a reconfiguration error caused by failing to reach a
// daemon at all (as opposed to a daemon that answered and refused) — the
// signal the rebalance circuit breaker keys on.
type dialFailure struct {
	daemon int
	err    error
}

func (e *dialFailure) Error() string { return e.err.Error() }
func (e *dialFailure) Unwrap() error { return e.err }

// moveLocked runs one live handoff under candidate (epoch already bumped):
// the donor fences itself with the candidate map, drains, flushes, and
// transfers the file set to the recipient, which adopts map and image in
// one frame. Only on success does the candidate become the current map.
// Called with mu held; the handoff itself runs over the wire while holding
// mu — the authority serializes reconfigurations by design.
func (a *Authority) moveLocked(candidate *placement.ClusterMap, fileSet string, from, to int) error {
	donor, ok := a.daemons[from]
	if !ok {
		return fmt.Errorf("fleet: donor daemon %d unknown", from)
	}
	recipient, ok := a.daemons[to]
	if !ok {
		return fmt.Errorf("fleet: recipient daemon %d unknown", to)
	}
	encoded, err := candidate.Encode()
	if err != nil {
		return err
	}
	c, err := a.dial(donor.Addr)
	if err != nil {
		return &dialFailure{daemon: from,
			err: fmt.Errorf("fleet: dial donor %d (%s): %w", from, donor.Addr, err)}
	}
	defer c.Close()
	if err := c.Handoff(candidate.Epoch, fileSet, recipient.Addr, encoded); err != nil {
		// The donor rolled itself back and keeps serving under the old
		// epoch; the candidate map is discarded.
		werr := fmt.Errorf("fleet: handoff of %q from %d to %d: %w", fileSet, from, to, err)
		if wire.ErrorCode(err) == wire.CodeDialRecipient {
			// The donor could not reach the recipient — same circuit as a
			// direct dial failure, attributed to the recipient.
			return &dialFailure{daemon: to, err: werr}
		}
		return werr
	}
	a.commitLocked(candidate)
	return nil
}

// failoverLocked moves a dead daemon's file sets to new owners. Each new
// owner replays the victim's journal tail from shared disk (OpTakeover)
// before serving, so every write the victim acknowledged durably survives;
// a victim that ran without a journal is adopted empty. The victim stays in
// the intermediate maps (its remaining assignments must validate) and is
// dropped in the final one; file sets no live daemon would take become
// unplaced rather than wedging the fleet. Caller holds mu and publishes the
// final map.
func (a *Authority) failoverLocked(victim int) {
	if _, ok := a.daemons[victim]; !ok {
		return
	}
	fileSets := a.Map().FileSetsOf(victim)
	a.obs.Counter(CtrFailovers).Add(1)
	if err := a.mapper.RemoveServer(victim); err == nil {
		_ = a.rescaleBySpeed()
	}
	// Group the victim's file sets by their mapper-chosen new owner so each
	// recipient replays the victim's journal once, not once per file set.
	groups := map[int][]string{}
	for _, fs := range fileSets {
		owner := a.mapper.Owner(fs)
		groups[owner] = append(groups[owner], fs)
	}
	owners := make([]int, 0, len(groups))
	for id := range groups {
		owners = append(owners, id)
	}
	sort.Ints(owners)
	a.dirsMu.Lock()
	dir := a.dirs[victim]
	a.dirsMu.Unlock()
	adopted := 0
	for _, owner := range owners {
		fsList := groups[owner]
		sort.Strings(fsList)
		if a.takeoverLocked(owner, victim, fsList, dir) {
			adopted += len(fsList)
			continue
		}
		// The chosen owner is down too (or refused); try the other live
		// daemons in ID order before giving the file sets up as unplaced.
		for _, cand := range a.liveCandidatesLocked(victim, owner) {
			if a.takeoverLocked(cand, victim, fsList, dir) {
				adopted += len(fsList)
				break
			}
		}
	}
	// Final map: the victim is gone, and anything still assigned to it
	// (a group every candidate refused) is dropped to unplaced.
	cur := a.Map()
	assign := make(map[string]int, len(cur.Assign))
	unplaced := 0
	for fs, id := range cur.Assign {
		if id == victim {
			unplaced++
			continue
		}
		assign[fs] = id
	}
	delete(a.daemons, victim)
	a.dirsMu.Lock()
	delete(a.dirs, victim)
	a.dirsMu.Unlock()
	if a.elector != nil {
		a.elector.Leave(victim)
	}
	cm := a.composeLocked(a.nextEpochLocked(), assign)
	a.commitLocked(cm)
	a.obs.Counter(CtrFailoverFileSets).Add(int64(adopted))
	a.obs.Counter(CtrFailoverUnplaced).Add(int64(unplaced))
}

// takeoverLocked asks one daemon to adopt fileSets from a dead daemon,
// replaying the victim's journal directory first. Commits the candidate
// map on success.
func (a *Authority) takeoverLocked(owner, victim int, fileSets []string, journalDir string) bool {
	oinfo, ok := a.daemons[owner]
	if !ok || owner == victim {
		return false
	}
	cur := a.Map()
	assign := make(map[string]int, len(cur.Assign))
	for fs, id := range cur.Assign {
		assign[fs] = id
	}
	for _, fs := range fileSets {
		assign[fs] = owner
	}
	candidate := a.composeLocked(a.nextEpochLocked(), assign)
	encoded, err := candidate.Encode()
	if err != nil {
		return false
	}
	c, err := a.dialFast(oinfo.Addr)
	if err != nil {
		return false
	}
	defer c.Close()
	// The connect deadline stays publish-fast (a dead candidate refuses in
	// about a second), but the call itself replays the victim's journal and
	// installs the images before replying — give it a handoff-sized budget,
	// or every realistic takeover times out, the authority walks the
	// candidate list shedding the file sets to unplaced, and recipients
	// that finished server-side anyway are left owning abandoned maps.
	c.SetTimeout(DefaultHandoffTimeout)
	if err := c.Takeover(candidate.Epoch, fileSets, journalDir, encoded); err != nil {
		return false
	}
	a.commitLocked(candidate)
	return true
}

// liveCandidatesLocked lists takeover fallback recipients in ID order:
// known daemons that are neither the victim nor the already-tried owner
// and, when the detector is on, hold a live lease (the authority daemon is
// live by construction).
func (a *Authority) liveCandidatesLocked(victim, except int) []int {
	live := map[int]bool{a.cfg.SelfID: true}
	if a.elector != nil {
		for _, id := range a.elector.Members() {
			live[id] = true
		}
	}
	out := make([]int, 0, len(a.daemons))
	for id := range a.daemons {
		if id == victim || id == except {
			continue
		}
		if a.elector != nil && !live[id] {
			continue
		}
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// publish pushes the map to every daemon, best effort and in parallel.
// Member polling (and wrong-owner refetches) is the correctness backstop;
// the push just makes convergence immediate. The wait is hard-capped by
// PublishWait and each daemon by the fast dialer's deadline, so a dead
// daemon cannot stall an Assign/Rebalance/Join return.
func (a *Authority) publish(cm *placement.ClusterMap) {
	encoded, err := cm.Encode()
	if err != nil {
		return
	}
	// The volume registry piggybacks on every map push (members install it
	// only when the version is newer), so quota/weight changes converge on
	// the same machinery as the map.
	vols, vversion := a.vols.List()
	var wg sync.WaitGroup
	for _, d := range cm.Daemons {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			c, err := a.dialFast(addr)
			if err != nil {
				a.obs.Counter(CtrPublishStragglers).Add(1)
				return
			}
			defer c.Close()
			// Empty FileSet = map-only push.
			_, err = c.Call(wire.Request{Op: wire.OpAdopt, Epoch: cm.Epoch, Map: encoded,
				Volumes: vols, VolumesVersion: vversion})
			if err != nil {
				a.obs.Counter(CtrPublishStragglers).Add(1)
			}
		}(d.Addr)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(a.cfg.PublishWait):
		// Abandon the round; straggler goroutines finish (or time out on
		// their own deadlines) in the background.
	}
}
