// Package fleet shards anufs across N independent anufsd processes: each
// daemon owns a subset of file sets, an epoch-numbered cluster map derived
// from the ANU placement policy (internal/placement) is the routing plane,
// and file sets move between daemons by live handoff — the donor drains and
// flushes, the recipient adopts the image, and the donor fences its copy.
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
// serving (OpTakeover), so acknowledged writes survive kill -9. The
// authority journals its map, tenant volumes included, as one image per
// commit (AuthorityConfig.Disk); NewAuthority resumes from it after a
// restart, or on a promoted standby the journal was log-shipped to.
package fleet

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"anufs/internal/core"
	"anufs/internal/obs"
	"anufs/internal/placement"
	"anufs/internal/sharedisk"
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
	// wire (OpJoin). Ignored when the authority resumes from Disk, except
	// that a resumed map must then name SelfID as its authority.
	Daemons []placement.DaemonInfo
	// FileSets seeds the initial assignment, placed by ANU over the daemon
	// IDs with speed-proportional shares. Ignored on resume.
	FileSets []string
	// SelfID is the ID of the daemon hosting this authority — published in
	// the map's Authority field so members and routers can find the
	// authority after a standby promotion. Defaults to 0, the historical
	// convention. An authority resumed with no Daemons takes the ID the
	// journaled map names instead: a promoted standby becomes the daemon it
	// stood by for.
	SelfID int
	// Lease enables heartbeat failure detection when > 0: a daemon that
	// does not heartbeat within one lease (after a startup grace of four
	// leases) is declared dead and failed over. Zero disables the detector —
	// membership changes only through explicit join/leave.
	Lease time.Duration
	// Disk (a sharedisk.Installer; nil persists nothing) gets one
	// MapFileSet image of the map per commit; a failed install is
	// counted, not fatal. When Disk holds that image already, NewAuthority
	// resumes from it: its first epoch lands PromotionEpochJump above the
	// journaled one, and Start publishes that map once, which is how
	// surviving daemons learn where the authority lives now.
	Disk sharedisk.Disk
	// Addr is the hosting daemon's wire address, written into a resumed map
	// as the authority daemon's address. Empty keeps the journaled one.
	Addr string
}

// peer is what a reconfiguration asks of one daemon connection. A
// *wire.Client is one; tests substitute their own.
type peer interface {
	Handoff(epoch uint64, fileSet, addr string, mapData []byte) error
	Takeover(epoch uint64, fileSets []string, journalDir string, mapData []byte) error
	Call(req wire.Request) (wire.Response, error)
	Close() error
}

// dialClient connects to addr within connect and bounds every call on the
// connection by call.
func dialClient(addr string, connect, call time.Duration) (*wire.Client, error) {
	c, err := wire.DialTimeout(addr, connect)
	if err != nil {
		return nil, err
	}
	c.SetTimeout(call)
	return c, nil
}

// dialWire is dialClient behind the peer seam.
func dialWire(addr string, connect, call time.Duration) (peer, error) {
	c, err := dialClient(addr, connect, call)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Authority owns the cluster map: it places file sets with ANU, bumps the
// epoch on every change, and orchestrates live handoffs with the donor
// daemons. Exactly one daemon in a fleet hosts it.
//
// Every reconfiguration — join, leave, assign, rebalance, failover, volume
// change — takes the same steps under mu: one membership change on anu,
// moves computed from anu.Owner and run one epoch each (handoffLocked, or
// takeoverLocked for a dead donor), then one commit.
type Authority struct {
	cfg AuthorityConfig

	// Seams NewAuthority sets to the production values and tests replace:
	// how daemons are reached, the publish deadlines, and how long after
	// Start the detector holds off.
	dial           func(addr string, connect, call time.Duration) (peer, error)
	publishTimeout time.Duration
	publishWait    time.Duration
	startupGrace   time.Duration

	// cur is the current map, and the only membership record: each daemon's
	// address, speed and journal directory. It is atomic, not guarded by
	// mu, so Map and Heartbeat never block on an in-flight reconfiguration —
	// a handoff whose recipient is the authority daemon itself reads the
	// map from inside the RPC the authority is waiting on.
	cur atomic.Pointer[placement.ClusterMap]

	// installer is cfg.Disk, which every commit installs through; resumed
	// tells Start to announce a map NewAuthority resumed.
	installer sharedisk.Installer
	resumed   bool

	// obs is the hosting daemon's registry: NewMember sets it when handed
	// this authority, before either is started. Nil counts nowhere.
	obs *obs.Registry
	// leases holds each daemon's liveness deadline, set one Lease out by
	// renew. Its own lock, never mu: Heartbeat renews while a
	// reconfiguration holds mu across network calls.
	leaseMu sync.Mutex
	leases  map[int]time.Time

	// mu serializes reconfigurations; nothing else takes it.
	mu sync.Mutex
	// anu places file sets over the daemons that may own them: the map's
	// daemons, minus one being drained or failed over.
	anu *placement.ANU
	// issued is the highest epoch ever composed into a candidate map,
	// committed or not. Epochs are reserved, never reused: an abandoned
	// candidate may still have been installed by its recipient (the RPC
	// timed out after the server-side adopt), so a later map with different
	// contents must carry a strictly higher epoch or that recipient would
	// never converge to it.
	issued uint64

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewAuthority builds the authority and its initial map — resumed from the
// image on cfg.Disk when there is one, seeded from cfg.Daemons and
// cfg.FileSets otherwise. No daemons are contacted; the initial assignment
// is what the daemons themselves fetch (or compute locally, for the
// authority daemon) at startup.
func NewAuthority(cfg AuthorityConfig) (*Authority, error) {
	a := &Authority{
		cfg:            cfg,
		dial:           dialWire,
		publishTimeout: DefaultPublishTimeout,
		publishWait:    DefaultPublishWait,
		startupGrace:   4 * cfg.Lease,
		leases:         map[int]time.Time{},
		anu:            placement.NewANU(core.Defaults()),
		stop:           make(chan struct{}),
		done:           make(chan struct{}),
	}
	seed := &placement.ClusterMap{Daemons: cfg.Daemons, Volumes: []volume.Info{volume.Default()}}
	if cfg.Disk != nil {
		inst, ok := cfg.Disk.(sharedisk.Installer)
		if !ok {
			return nil, fmt.Errorf("fleet: authority disk %T cannot install images", cfg.Disk)
		}
		a.installer = inst
		resumed, err := a.resume()
		if err != nil {
			return nil, err
		}
		if resumed != nil {
			seed, a.resumed = resumed, true
			a.issued = seed.Epoch + PromotionEpochJump
		}
	}
	// Validate refuses an empty fleet, duplicate IDs, missing addresses and
	// speeds that are not > 0 (NaN included) before ANU sees any of them.
	cm := a.nextLocked(seed, seed.Daemons)
	if err := cm.Validate(); err != nil {
		return nil, fmt.Errorf("fleet: initial map: %w", err)
	}
	ids := make([]int, len(cm.Daemons))
	for i, d := range cm.Daemons {
		ids[i] = d.ID
	}
	if err := a.anu.Init(ids, nil); err != nil {
		return nil, err
	}
	if err := a.rescaleLocked(cm.Daemons); err != nil {
		return nil, err
	}
	if !a.resumed {
		for _, fs := range cfg.FileSets {
			cm.Assign[fs] = a.anu.Owner(fs)
		}
	}
	a.commitLocked(cm)
	return a, nil
}

// resume returns the map of the image on cfg.Disk, if any, volumes
// included, with cfg.Addr as the authority daemon's address. With a roster,
// a map naming another authority is refused: resuming it would publish
// under another daemon's identity, and seeding afresh would reuse epochs
// every member already holds.
func (a *Authority) resume() (*placement.ClusterMap, error) {
	im, err := a.cfg.Disk.Load(MapFileSet)
	if err != nil {
		return nil, nil // the only Load error is an unknown file set: no image yet
	}
	cm, err := decodeMapImage(im)
	if err != nil {
		return nil, fmt.Errorf("fleet: resume: %w", err)
	}
	if len(a.cfg.Daemons) > 0 && cm.Authority != a.cfg.SelfID {
		return nil, fmt.Errorf("fleet: resume: the journaled map (epoch %d) names daemon %d as its authority, not daemon %d",
			cm.Epoch, cm.Authority, a.cfg.SelfID)
	}
	a.cfg.SelfID = cm.Authority
	for i, d := range cm.Daemons {
		if d.ID == cm.Authority && a.cfg.Addr != "" {
			cm.Daemons[i].Addr = a.cfg.Addr
		}
	}
	return cm, nil
}

// Start launches the heartbeat failure detector (when Lease > 0) and, on
// a resumed authority, the announce publish. Idempotent.
func (a *Authority) Start() {
	a.startOnce.Do(func() {
		if a.resumed {
			go a.publish(a.Map())
		}
		if a.cfg.Lease <= 0 {
			close(a.done)
			return
		}
		// Everyone starts with a full lease; members renew via OpHeartbeat.
		now := time.Now()
		for _, d := range a.Map().Daemons {
			a.renew(d.ID, now)
		}
		go a.detectLoop(now.Add(a.startupGrace))
	})
}

// Stop terminates the failure detector. Safe to call without Start.
func (a *Authority) Stop() {
	a.stopOnce.Do(func() { close(a.stop) })
	a.startOnce.Do(func() { close(a.done) }) // Start never ran: nothing to wait for
	<-a.done
}

// detectLoop fails over the file sets of daemons whose liveness lease
// lapsed, from graceUntil on.
func (a *Authority) detectLoop(graceUntil time.Time) {
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
		now := time.Now()
		if now.Before(graceUntil) {
			continue
		}
		a.mu.Lock()
		reaped := a.reapLocked(now)
		cm := a.Map()
		a.mu.Unlock()
		if reaped {
			a.publish(cm)
		}
	}
}

// reapLocked fails over every daemon whose lease lapsed by now and reports
// whether there was one. Caller holds mu and publishes the map.
func (a *Authority) reapLocked(now time.Time) bool {
	var dead []int
	for _, d := range a.Map().Daemons {
		if !a.live(d.ID, now) {
			dead = append(dead, d.ID)
		}
	}
	for _, id := range dead {
		a.failoverLocked(id)
	}
	return len(dead) > 0
}

// renew sets daemon id's lease to expire one Lease after now. With the
// detector off there are no leases to keep.
func (a *Authority) renew(id int, now time.Time) {
	if a.cfg.Lease <= 0 {
		return
	}
	a.leaseMu.Lock()
	a.leases[id] = now.Add(a.cfg.Lease)
	a.leaseMu.Unlock()
}

// forget drops daemon id's lease: it left, or was failed over.
func (a *Authority) forget(id int) {
	a.leaseMu.Lock()
	delete(a.leases, id)
	a.leaseMu.Unlock()
}

// live reports whether daemon id holds a lease at now. The authority's own
// daemon always does — it is running this code — and with the detector off
// every daemon does.
func (a *Authority) live(id int, now time.Time) bool {
	if a.cfg.Lease <= 0 || id == a.cfg.SelfID {
		return true
	}
	a.leaseMu.Lock()
	deadline, ok := a.leases[id]
	a.leaseMu.Unlock()
	return ok && !now.After(deadline)
}

// rescaleLocked sets the ANU shares proportional to the declared speeds in
// daemons, which must list every daemon ANU places on — the paper's
// heterogeneity-aware starting point, which the fleet keeps until it tunes
// from measured latency.
func (a *Authority) rescaleLocked(daemons []placement.DaemonInfo) error {
	speed := make(map[int]float64, len(daemons))
	for _, d := range daemons {
		speed[d.ID] = d.Speed
	}
	return placement.RescaleBySpeed(a.anu.Mapper(), func(id int) float64 { return speed[id] })
}

// reshapeLocked runs one membership change on ANU — change is its ServerUp
// or ServerDown — for daemon id, then rescales by the speeds in daemons.
func (a *Authority) reshapeLocked(change func(id int) error, id int, daemons []placement.DaemonInfo) error {
	if err := change(id); err != nil {
		return err
	}
	return a.rescaleLocked(daemons)
}

// nextLocked reserves a fresh epoch — strictly above every map ever
// composed, committed or abandoned — and returns a candidate map at it
// with daemons (sorted by ID) and base's assignment and volumes, for the
// caller to edit and then commit or abandon. Failed reconfigurations leave
// gaps in the epoch sequence; consumers only need monotonicity. The
// candidate never consults ANU, so a membership change cannot silently
// move file sets without the handoff or takeover that makes the move safe.
func (a *Authority) nextLocked(base *placement.ClusterMap, daemons []placement.DaemonInfo) *placement.ClusterMap {
	a.issued++
	cm := &placement.ClusterMap{
		Epoch:     a.issued,
		Daemons:   slices.Clone(daemons),
		Assign:    make(map[string]int, len(base.Assign)+1),
		Authority: a.cfg.SelfID,
		Volumes:   base.Volumes, // shared: an edit makes a new list
	}
	sort.Slice(cm.Daemons, func(i, j int) bool { return cm.Daemons[i].ID < cm.Daemons[j].ID })
	maps.Copy(cm.Assign, base.Assign)
	return cm
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// without returns a copy of daemons minus daemon id.
func without(daemons []placement.DaemonInfo, id int) []placement.DaemonInfo {
	return slices.DeleteFunc(slices.Clone(daemons), func(d placement.DaemonInfo) bool { return d.ID == id })
}

// commitLocked makes cm the current map, first installing it as the
// authority's image when there is a disk. A failed install is counted and
// the commit proceeds: the fleet must keep reconfiguring even when the
// journal is sick.
func (a *Authority) commitLocked(cm *placement.ClusterMap) {
	if a.installer != nil {
		im, err := encodeMapImage(cm)
		if err == nil {
			err = a.installer.Install(MapFileSet, im)
		}
		if err != nil {
			a.obs.Counter(CtrPersistFailures).Add(1)
		}
	}
	a.cur.Store(cm)
}

// Map returns the current cluster map (immutable; callers must not
// mutate). Never blocks, even mid-reconfiguration.
func (a *Authority) Map() *placement.ClusterMap { return a.cur.Load() }

// Epoch returns the current map epoch.
func (a *Authority) Epoch() uint64 { return a.Map().Epoch }

// Join registers daemon id at addr with the given relative speed and
// journal directory, live — no fleet restart. A new daemon starts with no
// file sets (new placements and the next rebalance use it); a known daemon
// re-joining with a different record replaces it, and one re-joining with
// the same record changes nothing. Returns the resulting map.
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
	a.renew(id, time.Now())
	info := placement.DaemonInfo{ID: id, Addr: addr, Speed: speed, JournalDir: journalDir}
	a.mu.Lock()
	cur := a.Map()
	prev, known := cur.Daemon(id)
	if known && prev == info {
		// Idempotent re-join (e.g. a daemon restarting in place): nothing
		// changed, no epoch bump.
		a.mu.Unlock()
		return cur, nil
	}
	daemons := append(without(cur.Daemons, id), info)
	var err error
	if known {
		err = a.rescaleLocked(daemons)
	} else {
		err = a.reshapeLocked(a.anu.ServerUp, id, daemons)
	}
	if err != nil {
		if !known {
			// Best effort: keep ANU to the map's daemons. The join is
			// refused either way.
			_ = a.reshapeLocked(a.anu.ServerDown, id, cur.Daemons)
		}
		a.mu.Unlock()
		return nil, err
	}
	cm := a.nextLocked(cur, daemons)
	a.commitLocked(cm)
	a.obs.Counter(CtrJoins).Add(1)
	a.mu.Unlock()
	a.publish(cm)
	return cm, nil
}

// Leave gracefully decommissions daemon id: every file set it owns is
// handed off (live — the leaver is up and draining) to the remaining
// daemons, then the daemon is dropped from the map. When some handoffs
// fail the rest still run, and the daemon stays a member owning only the
// file sets that did not move.
func (a *Authority) Leave(id int) (uint64, error) {
	a.mu.Lock()
	cur := a.Map()
	if _, ok := cur.Daemon(id); !ok {
		a.mu.Unlock()
		return 0, fmt.Errorf("fleet: unknown daemon %d", id)
	}
	if id == a.cfg.SelfID {
		a.mu.Unlock()
		return 0, fmt.Errorf("fleet: daemon %d hosts the authority and cannot leave", id)
	}
	// Take the leaver out of placement first so nothing new lands on it,
	// then drain what it owns.
	if err := a.reshapeLocked(a.anu.ServerDown, id, cur.Daemons); err != nil {
		a.mu.Unlock()
		return 0, err
	}
	if _, err := a.moveLocked(cur.FileSetsOf(id)); err != nil {
		// Re-admit the leaver: it still owns what did not move. Were this
		// to fail, ANU would only keep new file sets off the leaver.
		_ = a.reshapeLocked(a.anu.ServerUp, id, cur.Daemons)
		cm := a.Map()
		a.mu.Unlock()
		a.publish(cm)
		return cm.Epoch, fmt.Errorf("fleet: leave of daemon %d: %w", id, err)
	}
	a.forget(id)
	cur = a.Map()
	cm := a.nextLocked(cur, without(cur.Daemons, id))
	a.commitLocked(cm)
	a.obs.Counter(CtrLeaves).Add(1)
	a.mu.Unlock()
	a.publish(cm)
	return cm.Epoch, nil
}

// Heartbeat renews daemon id's liveness lease. A daemon the map does not
// list, or lists with a journal directory other than the one it reports,
// gets a join-first error (wire.CodeJoinFirst) and re-joins with its full
// identity — how a member discovers it was declared dead (or that a
// promoted standby never heard of it), and how a roster-seeded daemon puts
// the journal directory a failover replays into the map.
//
// Reads only the atomic map and the lease table, never mu:
// reconfigurations hold mu across chains of network RPCs, and a heartbeat
// queued behind one would time out at the member's probe deadline —
// leases would lapse because the authority was busy, and the next detector
// tick would declare healthy members dead, cascading the failover.
func (a *Authority) Heartbeat(id int, journalDir string) (uint64, error) {
	cm := a.Map()
	if d, ok := cm.Daemon(id); !ok || d.JournalDir != journalDir {
		return 0, &wire.CodedError{Code: wire.CodeJoinFirst,
			Err: fmt.Errorf("fleet: the map has no daemon %d with journal dir %q: join first", id, journalDir)}
	}
	a.renew(id, time.Now())
	return cm.Epoch, nil
}

// Assign pins a file set to a daemon (daemon = -1 places it by ANU). A new
// file set just joins the map; moving an owned file set runs a live
// handoff with the current owner before the new map commits. Returns the
// resulting epoch.
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
	if _, ok := cur.Daemon(daemon); !ok {
		a.mu.Unlock()
		return 0, fmt.Errorf("fleet: unknown daemon %d", daemon)
	}
	if owned && from == daemon {
		a.mu.Unlock()
		return cur.Epoch, nil // already there
	}
	var err error
	if owned {
		err = a.handoffLocked(fileSet, daemon)
	} else {
		// A brand-new file set needs no handoff.
		cm := a.nextLocked(cur, cur.Daemons)
		cm.Assign[fileSet] = daemon
		a.commitLocked(cm)
	}
	cm := a.Map()
	a.mu.Unlock()
	if err != nil {
		return cm.Epoch, err
	}
	a.publish(cm)
	return cm.Epoch, nil
}

// Rebalance moves every file set whose owner differs from ANU's choice
// (see moveLocked) and returns the final epoch and the first error.
func (a *Authority) Rebalance() (uint64, error) {
	a.mu.Lock()
	skipped, err := a.moveLocked(sortedKeys(a.Map().Assign))
	cm := a.Map()
	a.mu.Unlock()
	a.publish(cm)
	if len(skipped) > 0 {
		return cm.Epoch, fmt.Errorf("fleet: rebalance skipped moves of %s (unreachable daemon): %w",
			strings.Join(skipped, ", "), err)
	}
	return cm.Epoch, err
}

// dialFailure marks a reconfiguration error caused by failing to reach a
// daemon at all (as opposed to a daemon that answered and refused) — the
// signal the circuit breaker keys on.
type dialFailure struct {
	daemon int
	err    error
}

func (e *dialFailure) Error() string { return e.err.Error() }
func (e *dialFailure) Unwrap() error { return e.err }

// moveLocked hands each of fileSets whose owner differs from ANU's choice
// to that owner, in order, one handoff and one epoch per move. A failed
// move leaves the map at its last good epoch and the pass goes on. A
// daemon that cannot be reached is circuit-broken for the rest of the
// pass: its remaining moves are skipped and returned, so one dead daemon
// costs one dial timeout, not one per move. Returns the skipped file sets
// and the first error.
func (a *Authority) moveLocked(fileSets []string) (skipped []string, firstErr error) {
	broken := map[int]bool{}
	for _, fs := range fileSets {
		from, to := a.Map().Assign[fs], a.anu.Owner(fs)
		if from == to {
			continue
		}
		if broken[from] || broken[to] {
			skipped = append(skipped, fs)
			continue
		}
		err := a.handoffLocked(fs, to)
		var df *dialFailure
		if errors.As(err, &df) {
			broken[df.daemon] = true
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return skipped, firstErr
}

// handoffLocked moves fileSet from its owner to daemon to under a fresh
// candidate epoch: the donor fences itself with the candidate map, drains,
// flushes, and transfers the file set to the recipient, which adopts map
// and image in one frame. Only on success does the candidate become the
// current map. The handoff runs over the wire while mu is held — the
// authority serializes reconfigurations by design.
func (a *Authority) handoffLocked(fileSet string, to int) error {
	cur := a.Map()
	from := cur.Assign[fileSet]
	donor, _ := cur.Daemon(from)
	recipient, _ := cur.Daemon(to)
	candidate := a.nextLocked(cur, cur.Daemons)
	candidate.Assign[fileSet] = to
	encoded, err := candidate.Encode()
	if err != nil {
		return err
	}
	c, err := a.dial(donor.Addr, DefaultDialTimeout, DefaultHandoffTimeout)
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
// owner replays the victim's journal — the directory the map records for
// it — from shared disk (OpTakeover) before serving, so every write the
// victim acknowledged durably survives; a victim that ran without a
// journal is adopted empty. The victim stays in the intermediate maps (its
// remaining assignments must validate) and is dropped in the final one;
// file sets no live daemon would take become unplaced rather than wedging
// the fleet. Caller holds mu and publishes the final map.
func (a *Authority) failoverLocked(victim int) {
	cur := a.Map()
	dead, ok := cur.Daemon(victim)
	if !ok {
		return
	}
	a.obs.Counter(CtrFailovers).Add(1)
	// Were this to fail, ANU could still pick the victim; takeoverLocked
	// refuses it, and the fallback candidates below take its file sets.
	_ = a.reshapeLocked(a.anu.ServerDown, victim, cur.Daemons)
	// Group the victim's file sets by their new owner so each recipient
	// replays the victim's journal once, not once per file set.
	groups := map[int][]string{}
	for _, fs := range cur.FileSetsOf(victim) {
		owner := a.anu.Owner(fs)
		groups[owner] = append(groups[owner], fs)
	}
	adopted := 0
	for _, owner := range sortedKeys(groups) {
		// When the chosen owner is down too (or refuses), try the other live
		// daemons in ID order before giving the file sets up as unplaced.
		for _, to := range append([]int{owner}, a.liveCandidatesLocked(victim, owner)...) {
			if a.takeoverLocked(to, victim, groups[owner], dead.JournalDir) {
				adopted += len(groups[owner])
				break
			}
		}
	}
	// Final map: the victim is gone, and anything still assigned to it
	// (a group every candidate refused) is dropped to unplaced.
	cur = a.Map()
	cm := a.nextLocked(cur, without(cur.Daemons, victim))
	unplaced := len(cur.FileSetsOf(victim))
	maps.DeleteFunc(cm.Assign, func(_ string, id int) bool { return id == victim })
	a.forget(victim)
	a.commitLocked(cm)
	a.obs.Counter(CtrFailoverFileSets).Add(int64(adopted))
	a.obs.Counter(CtrFailoverUnplaced).Add(int64(unplaced))
}

// takeoverLocked asks one daemon to adopt fileSets from a dead daemon,
// replaying the victim's journal directory first. Commits the candidate
// map on success.
func (a *Authority) takeoverLocked(owner, victim int, fileSets []string, journalDir string) bool {
	cur := a.Map()
	oinfo, ok := cur.Daemon(owner)
	if !ok || owner == victim {
		return false
	}
	candidate := a.nextLocked(cur, cur.Daemons)
	for _, fs := range fileSets {
		candidate.Assign[fs] = owner
	}
	encoded, err := candidate.Encode()
	if err != nil {
		return false
	}
	// The connect deadline stays publish-fast (a dead candidate refuses in
	// about a second), but the call itself replays the victim's journal and
	// installs the images before replying — give it a handoff-sized budget,
	// or every realistic takeover times out, the authority walks the
	// candidate list shedding the file sets to unplaced, and recipients
	// that finished server-side anyway are left owning abandoned maps.
	c, err := a.dial(oinfo.Addr, a.publishTimeout, DefaultHandoffTimeout)
	if err != nil {
		return false
	}
	defer c.Close()
	if err := c.Takeover(candidate.Epoch, fileSets, journalDir, encoded); err != nil {
		return false
	}
	a.commitLocked(candidate)
	return true
}

// liveCandidatesLocked lists takeover fallback recipients in ID order:
// daemons in the map that are neither the victim nor the already-tried
// owner and are live.
func (a *Authority) liveCandidatesLocked(victim, except int) []int {
	now := time.Now()
	var out []int
	for _, d := range a.Map().Daemons {
		if d.ID != victim && d.ID != except && a.live(d.ID, now) {
			out = append(out, d.ID)
		}
	}
	return out
}

// publish pushes the map to every daemon, best effort and in parallel.
// Member polling (and wrong-owner refetches) is the correctness backstop;
// the push just makes convergence immediate. The wait is hard-capped by
// publishWait and each daemon by publishTimeout, so a dead daemon cannot
// stall an Assign/Rebalance/Join return.
func (a *Authority) publish(cm *placement.ClusterMap) {
	encoded, err := cm.Encode()
	if err != nil {
		return
	}
	var wg sync.WaitGroup
	for _, d := range cm.Daemons {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			c, err := a.dial(addr, a.publishTimeout, a.publishTimeout)
			if err != nil {
				a.obs.Counter(CtrPublishStragglers).Add(1)
				return
			}
			defer c.Close()
			// Empty FileSet = map-only push.
			_, err = c.Call(wire.Request{Op: wire.OpAdopt, Epoch: cm.Epoch, Map: encoded})
			if err != nil {
				a.obs.Counter(CtrPublishStragglers).Add(1)
			}
		}(d.Addr)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(a.publishWait):
		// Abandon the round; straggler goroutines finish (or time out on
		// their own deadlines) in the background.
	}
}
